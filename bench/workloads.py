"""The benchmark's workloads, each a round of icd_run operations plus checks.

A round builds its instances (timed as set-up), runs its operations
(each ``icd_run`` call is one operation, timed as solve) and checks every
output against numpy computations made apart from icdkit, or against a
property the method is proven to have. Each workload comes in a ``full``
size, which is measured, and a ``tiny`` size of the same code paths,
used for the discarded warm-up and for the self-check.

Calls into icdkit go through module attributes (``core.icd_run``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from icdkit import block_angular, bounds, core, inner, objective, synthetic
from icdkit.blocks import BlockPartition, WeightVector
from icdkit.core import DeltaRule, InexactnessPolicy, SamplingLaw, SolverConfig
from icdkit.objective import CompositeObjective, SeparableRegularizer

MONOTONE_SLACK = 1e-12
F_RTOL = 1e-9
# allowance for rounding in r = A x - b when F is near 0, as a share of ||r|| ||b||
F_ROUNDING = 1e-12


class CheckFailed(AssertionError):
    pass


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Tally:
    """Timings, counts and operations of one round."""

    setup_s: float = 0.0
    solve_s: float = 0.0
    block_updates: int = 0
    inner_iters: int = 0
    attempted: int = 0
    failed: int = 0
    op_s: dict = field(default_factory=dict)  # operation label -> seconds

    @contextmanager
    def setup(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0

    def solve(self, label: str, *args, **kwargs) -> core.RunResult:
        """One operation: a timed core.icd_run call."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = core.icd_run(*args, **kwargs)
        finally:
            self.op_s[label] = time.perf_counter() - t0
            self.solve_s += self.op_s[label]
        self.block_updates += res.block_updates
        self.inner_iters += res.inner_iterations
        return res


class Evaluator:
    """F(x) = 1/2 ||A x - b||^2 + Psi(x), computed with numpy/scipy alone."""

    def __init__(self, residual, b, penalty=lambda x: 0.0):
        self.residual = residual
        self.b_norm = float(np.linalg.norm(b))
        self.penalty = penalty

    def F(self, x) -> tuple[float, float]:
        """Returns F(x) and the tolerance to which it is known."""
        r = self.residual(x)
        F = 0.5 * float(r @ r) + self.penalty(x)
        return F, F_RTOL * abs(F) + F_ROUNDING * float(np.linalg.norm(r)) * self.b_norm


def check_run(res, ev: Evaluator, x0, label: str, caps=None, lam_min=None) -> float:
    """Checks every operation must pass; returns F(x_final) from numpy.

    - F never increases across the records, starting from F(x0);
    - F recomputed from x matches F_final;
    - every converged, non-fallback update has a certificate <= delta.
      ``caps`` maps a block to its inner iteration cap; a record that
      reached it did not converge. With ``lam_min`` (rigorous CG) the
      certificate 1/2||B t - g||^2 bounds the model gap only after division
      by lambda_min(B_i), so it must stay <= delta * lambda_min(B_i).
    """
    caps = caps or {}
    prev, _ = ev.F(x0)
    for rec in res.records:
        require(rec.F <= prev + MONOTONE_SLACK * (1 + abs(prev)),
                f"{label}: F rose at update {rec.k}: {prev!r} -> {rec.F!r}")
        prev = rec.F
        if rec.vacuous_fallback or rec.inner_iterations >= caps.get(rec.block, np.inf):
            continue
        limit = rec.delta * (lam_min[rec.block] if lam_min else 1.0)
        require(rec.certificate <= limit,
                f"{label}: update {rec.k} certificate {rec.certificate!r} exceeds {limit!r}")
    F, tol = ev.F(res.x)
    require(abs(F - res.F_final) <= tol,
            f"{label}: F_final {res.F_final!r} but numpy gives {F!r}")
    return F


def _krylov_caps(sizes, solver: SolverConfig) -> dict:
    """Per-block iteration caps of icdkit's CG and PCG loops."""
    return {i: min(solver.max_inner_iters, 10 * Ni + 10) for i, Ni in enumerate(sizes)}


# --------------------------------------------------------------------------
# smallblock: the criterion-4 family, exactly K updates per run


SMALLBLOCK = {
    "full": dict(M=100, n=5, Ni=10, data_seeds=(42, 43, 44, 45, 46), runs_per_instance=4),
    "tiny": dict(M=20, n=2, Ni=5, data_seeds=(42, 43), runs_per_instance=2),
}
SB_EPS, SB_RHO = 1.0, 0.2


def smallblock_sampling_seeds(seed: int, count: int) -> list[int]:
    return [1000 * seed + j for j in range(count)]


def _smallblock_instance(M, n, Ni, data_seed):
    """Consistent Gaussian least squares (F* = 0), its K and lambda_min(B_i)."""
    rng = np.random.default_rng(data_seed)
    A = rng.standard_normal((M, n * Ni))
    x_star = rng.standard_normal(n * Ni)
    b = A @ x_star
    smooth = objective.QuadraticSmooth(sp.csc_matrix(A), b, BlockPartition((Ni,) * n))
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), objective.quadratic_metric(smooth),
        F_star=0.0, x_star=x_star,
    )
    c2 = n / bounds.mu_quadratic(obj, WeightVector((1.0,) * n))
    beta = 0.1 * SB_EPS * SB_RHO / c2
    bound = bounds.iterations_case_ii(bounds.BoundInputs(
        c=c2, alpha=0.0, beta=beta, eps=SB_EPS, rho=SB_RHO, xi0=0.5 * float(b @ b)))
    lam_min = [float(np.linalg.eigvalsh(B.toarray() if sp.issparse(B) else B).min())
               for B in obj.metric.operators]
    return obj, A, b, beta, bound, lam_min


def smallblock(size: str, seed: int, tally: Tally):
    p = SMALLBLOCK[size]
    n = p["n"]
    with tally.setup():
        instances = [_smallblock_instance(p["M"], n, p["Ni"], ds) for ds in p["data_seeds"]]
    hits = runs = 0
    for data_seed, (obj, A, b, beta, bound, lam_min) in zip(p["data_seeds"], instances):
        require(bound.feasible, f"smallblock: bound infeasible: {bound.violated}")
        ev = Evaluator(lambda x, A=A, b=b: A @ x - b, b)
        x0 = np.zeros(A.shape[1])
        for s in smallblock_sampling_seeds(seed, p["runs_per_instance"]):
            for name in ("cg", "exact"):
                label = f"smallblock {name} data {data_seed} sampling {s}"
                if name == "cg":
                    solver = SolverConfig(method="cg", rigorous=True, lambda_min_estimates=lam_min)
                else:
                    solver = SolverConfig(method="exact")
                res = tally.solve(label, obj, x0, InexactnessPolicy.uniform(beta),
                                  SamplingLaw.uniform(n, seed=s), solver, eps=None,
                                  max_block_updates=bound.K, stagnation_window=10**9)
                if name == "cg":
                    caps = _krylov_caps(obj.partition.sizes, solver)
                    F = check_run(res, ev, x0, label, caps, lam_min)
                else:
                    F = check_run(res, ev, x0, label)
                require(res.block_updates == bound.K,
                        f"{label}: {res.block_updates} updates, K = {bound.K}")
                runs += 1
                hits += F <= SB_EPS  # F* = 0
    # the linear-rate theorem: Prob(F(x_K) - F* <= eps) >= 1 - rho
    require(hits >= (1 - SB_RHO) * runs,
            f"smallblock: {hits}/{runs} runs reached eps after K updates")


# --------------------------------------------------------------------------
# lasso: the criterion-7 shape at half scale, prox path, fixed cyclic order


LASSO = {
    "full": dict(M=2000, N=1000, n=10, group_budget=30, max_updates=2000),
    "tiny": dict(M=200, N=100, n=10, group_budget=10, max_updates=2000),
}
LASSO_LAM, LASSO_SEED, LASSO_EPS = 0.01, 1, 1e-4


def _l1(lam):
    return lambda x: lam * float(np.abs(x).sum())


def _lasso_data(obj: CompositeObjective, label: str):
    """Dense A, b and the numpy evaluator of the l1 objective.

    Checks the lasso KKT conditions at the planted x* with numpy, which
    shows that F* is the minimum, and returns F* recomputed.
    """
    lam = obj.reg.lam
    A, b, x = obj.smooth.A.toarray(), obj.smooth.b, obj.x_star
    ev = Evaluator(lambda v: A @ v - b, b, _l1(lam))
    g = A.T @ (A @ x - b)
    on = x != 0
    tol = 1e-6 * lam
    require(np.all(np.abs(g[on] + lam * np.sign(x[on])) <= tol),
            f"{label}: gradient on the support of x* is not -lam*sign(x*)")
    require(np.all(np.abs(g[~on]) <= lam + tol),
            f"{label}: |gradient| exceeds lam off the support of x*")
    F_star, tol_F = ev.F(x)
    require(abs(F_star - obj.F_star) <= tol_F,
            f"{label}: F* {obj.F_star!r} but numpy gives {F_star!r}")
    return A, b, ev, F_star


def lasso(size: str, seed: int, tally: Tally):
    """Inputs are fixed: ``seed`` does not change them."""
    p = LASSO[size]
    n, N = p["n"], p["N"]
    lam = LASSO_LAM
    with tally.setup():
        obj = synthetic.lasso_instance(p["M"], N, (N // n,) * n, lam=lam, seed=LASSO_SEED)
        fault_obj = synthetic.lasso_instance(60, 30, (10, 10, 10), lam=0.05, seed=0)
    A, b, ev, F_star = _lasso_data(obj, "lasso")
    x0 = np.zeros(N)
    cyclic = SamplingLaw.uniform(n, fixed_order=tuple(k % n for k in range(p["max_updates"])))
    caps = {i: SolverConfig().max_inner_iters for i in range(n)}

    # l1 path at a loose and a tight duality-gap budget
    updates = []
    for beta in (1e-4, 1e-8):
        label = f"lasso l1 beta={beta}"
        res = tally.solve(label, obj, x0, InexactnessPolicy.uniform(beta), cyclic,
                          SolverConfig(method="prox"), eps=LASSO_EPS,
                          max_block_updates=p["max_updates"])
        F = check_run(res, ev, x0, label, caps)
        require(res.converged and F - F_star < LASSO_EPS,
                f"{label}: F - F* = {F - F_star!r} after {res.block_updates}")
        updates.append(res.block_updates)
    require(max(updates) - min(updates) <= 0.1 * max(updates),
            f"lasso: outer updates {updates} differ by more than 10%")

    # group lasso on the same matrix and metric, weights d_i = N_i, fixed budget
    part = obj.partition
    d = tuple(float(s) for s in part.sizes)
    gobj = CompositeObjective(obj.smooth, SeparableRegularizer.group_lasso(lam, d), obj.metric)
    gev = Evaluator(lambda v: A @ v - b, b, lambda v: lam * sum(
        np.sqrt(d[i]) * float(np.linalg.norm(v[part.range(i)])) for i in range(n)))
    res = tally.solve("lasso group", gobj, x0, InexactnessPolicy.uniform(1e-6), cyclic,
                      SolverConfig(method="prox"), eps=None,
                      max_block_updates=p["group_budget"], stagnation_window=10**9)
    check_run(res, gev, x0, "lasso group", caps)
    require(res.block_updates == p["group_budget"],
            f"lasso group: {res.block_updates} updates, budget {p['group_budget']}")

    _known_fault(fault_obj, tally)


def _known_fault(obj, tally: Tally):
    """Multiplicative delta rule with beta = 0 once F - F* rounds to 0.

    Today delta becomes 0 and the l1 path raises ValueError; the operation
    is counted as failed. Once mended it must end with F - F* at rounding.
    """
    _, _, ev, F_star = _lasso_data(obj, "lasso fault")
    x0 = np.zeros(obj.partition.N)
    try:
        res = tally.solve("lasso fault", obj, x0,
                          InexactnessPolicy(0.5, 0.0, DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE),
                          SamplingLaw.uniform(obj.partition.n, seed=0),
                          SolverConfig(method="prox"), eps=None, max_block_updates=2000)
    except ValueError:
        tally.failed += 1
        return
    F = check_run(res, ev, x0, "lasso fault")
    require(abs(F - F_star) <= F_RTOL * (1 + abs(F_star)),
            f"lasso fault: F - F* = {F - F_star!r}, not at rounding")


# --------------------------------------------------------------------------
# blockangular: the criterion-9 instance at ell = 1, exact / CG / PCG


BLOCKANGULAR = {
    "full": dict(n=10, M_i=2000, N_i=500),
    "tiny": dict(n=3, M_i=200, N_i=50),
}
BA_ELL, BA_SEED, BA_SAMPLING_SEED = 1, 3, 0
BA_BETA, BA_EPS, BA_DROP_TOL = 1e-8, 0.1, 0.1


def blockangular(size: str, seed: int, tally: Tally):
    """Inputs are fixed: ``seed`` does not change them."""
    p = BLOCKANGULAR[size]
    n = p["n"]
    with tally.setup():
        mat, x_star, b = block_angular.generate(
            block_angular.GeneratorSpec(n=n, M_i=p["M_i"], N_i=p["N_i"], ell=BA_ELL, seed=BA_SEED)
        )
        smooth = objective.QuadraticSmooth(mat.assemble(), b, mat.partition)
        obj = CompositeObjective(smooth, SeparableRegularizer.zero(),
                                 objective.quadratic_metric(smooth), F_star=0.0, x_star=x_star)
        factors = [
            inner.incomplete_cholesky(block_angular.build_preconditioner(mat, i), BA_DROP_TOL)
            for i in range(n)
        ]
    # residual from the stored blocks C_i, D_i: diagonal rows, then linking rows
    sl = [mat.partition.range(i) for i in range(n)]

    def residual(x):
        top = [mat.C_blocks[i] @ x[sl[i]] for i in range(n)]
        link = sum(mat.D_blocks[i] @ x[sl[i]] for i in range(n))
        return np.concatenate(top + [link]) - b

    ev = Evaluator(residual, b)
    F_planted, tol = ev.F(x_star)
    require(F_planted <= tol, f"blockangular: F(x*) = {F_planted!r}, not 0")
    x0 = np.zeros(mat.N)
    solvers = {
        "exact": SolverConfig(method="exact"),
        "cg": SolverConfig(method="cg"),
        "pcg": SolverConfig(method="pcg", precond_factors=factors),
    }
    medians = {}
    for name, solver in solvers.items():
        res = tally.solve(f"blockangular {name}", obj, x0, InexactnessPolicy.uniform(BA_BETA),
                          SamplingLaw.uniform(n, seed=BA_SAMPLING_SEED), solver,
                          eps=BA_EPS, max_block_updates=2000)
        caps = None if name == "exact" else _krylov_caps(mat.partition.sizes, solver)
        F = check_run(res, ev, x0, f"blockangular {name}", caps)
        require(res.converged and F < BA_EPS,
                f"blockangular {name}: F = {F!r} after {res.block_updates} updates")
        medians[name] = float(np.median([r.inner_iterations for r in res.records]))
    require(medians["pcg"] <= medians["cg"],
            f"blockangular: PCG median inner {medians['pcg']} > CG {medians['cg']}")


WORKLOADS = {"smallblock": smallblock, "lasso": lasso, "blockangular": blockangular}


def seeds_used(workload: str, seed: int) -> dict:
    """The seeds behind a full round, as recorded in the result file."""
    if workload == "smallblock":
        p = SMALLBLOCK["full"]
        return {"data_seeds": list(p["data_seeds"]),
                "sampling_seeds": smallblock_sampling_seeds(seed, p["runs_per_instance"])}
    if workload == "lasso":
        return {"instance_seed": LASSO_SEED, "fault_instance_seed": 0,
                "fault_sampling_seed": 0, "block_order": "cyclic from block 0"}
    return {"generator_seed": BA_SEED, "sampling_seed": BA_SAMPLING_SEED}
