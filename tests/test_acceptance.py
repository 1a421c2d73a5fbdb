"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

from icdkit import block_angular as ba
from icdkit.blocks import BlockPartition, WeightVector
from icdkit.bounds import (
    BoundInputs,
    exact_case_i,
    exact_case_ii,
    iterations_case_i,
    iterations_case_ii,
    mu_quadratic,
)
from icdkit.core import (
    InexactnessPolicy,
    SamplingLaw,
    SolverConfig,
    compute_update,
    delta_budget,
    icd_run,
    sample_block,
)
from icdkit.inner import incomplete_cholesky
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
    quadratic_metric,
)
from icdkit.synthetic import lasso_instance

MONOTONE_SLACK = 1e-12


def _report(criterion, name, passed):
    line = f"ACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # visible even under pytest capture
        print(line, file=sys.__stdout__)
    assert passed, f"acceptance criterion {criterion} ({name}) failed"


def _consistent_quadratic(rng, M, sizes, reg=None):
    p = BlockPartition(sizes)
    A = rng.standard_normal((M, p.N))
    x_star = rng.standard_normal(p.N)
    smooth = QuadraticSmooth(sp.csc_matrix(A), A @ x_star, p)
    reg = reg if reg is not None else SeparableRegularizer.zero()
    F_star = 0.0 if reg.kind.value == "zero" else None
    return CompositeObjective(
        smooth, reg, quadratic_metric(smooth),
        F_star=F_star, x_star=x_star if F_star is not None else None,
    )


def _monotone(records):
    prev = None
    for rec in records:
        if prev is not None and rec.F > prev + MONOTONE_SLACK * (1 + abs(prev)):
            return False
        prev = rec.F
    return True


def test_criterion_1_monotonicity():
    """F is nonincreasing over >= 100 runs spanning solver configurations."""
    start = time.time()
    rng = np.random.default_rng(0)
    runs = 0
    ok = True

    # 60 smooth runs split across exact / cg solvers and betas
    for trial in range(60):
        obj = _consistent_quadratic(rng, 24, (4, 4, 4))
        method = ("exact", "cg")[trial % 2]
        beta = (0.0, 1e-2, 1e-6)[trial % 3]
        policy = InexactnessPolicy.uniform(beta) if beta else InexactnessPolicy()
        res = icd_run(
            obj, rng.standard_normal(12), policy, SamplingLaw.uniform(3, seed=trial),
            SolverConfig(method=method), eps=1e-8, max_block_updates=1500,
        )
        ok = ok and _monotone(res.records)
        runs += 1

    # 20 block-angular pcg runs
    for trial in range(20):
        mat, x_star, b = ba.generate(
            ba.GeneratorSpec(n=3, M_i=30, N_i=10, ell=2, seed=trial)
        )
        smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
        obj = CompositeObjective(
            smooth, SeparableRegularizer.zero(), quadratic_metric(smooth),
            F_star=0.0, x_star=x_star,
        )
        factors = [
            incomplete_cholesky(ba.build_preconditioner(mat, i), 0.1) for i in range(3)
        ]
        res = icd_run(
            obj, rng.standard_normal(30), InexactnessPolicy.uniform(1e-2),
            SamplingLaw.uniform(3, seed=trial),
            SolverConfig(method="pcg", precond_factors=factors),
            eps=1e-6, max_block_updates=3000,
        )
        ok = ok and _monotone(res.records)
        runs += 1

    # 20 l1 and 10 group-lasso runs
    for trial in range(20):
        obj = lasso_instance(60, 30, (10, 10, 10), lam=0.05, seed=trial)
        res = icd_run(
            obj, np.zeros(30), InexactnessPolicy.uniform(1e-6),
            SamplingLaw.uniform(3, seed=trial), SolverConfig(method="prox"),
            eps=1e-6, max_block_updates=3000,
        )
        ok = ok and _monotone(res.records)
        runs += 1
    for trial in range(10):
        reg = SeparableRegularizer.group_lasso(0.05, (2.0, 2.0, 2.0))
        obj = _consistent_quadratic(rng, 24, (4, 4, 4), reg)
        res = icd_run(
            obj, rng.standard_normal(12), InexactnessPolicy.uniform(1e-6),
            SamplingLaw.uniform(3, seed=trial), SolverConfig(method="prox"),
            max_block_updates=800,
        )
        ok = ok and _monotone(res.records)
        runs += 1

    elapsed = time.time() - start
    _report(1, "monotonicity", ok and runs >= 100 and elapsed < 120)


def test_criterion_2_exact_limit_equivalence():
    """CG at beta = 1e-24 reproduces exact-Cholesky iterates blockwise."""
    ok = True
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 5))
        N_i = int(rng.integers(8, 25))
        M_i = N_i + int(rng.integers(5, 30))
        ell = int(rng.integers(1, 5))
        mat, x_star, b = ba.generate(
            ba.GeneratorSpec(n=n, M_i=M_i, N_i=N_i, ell=ell, seed=200 + trial)
        )
        assert mat.N <= 400
        smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
        obj = CompositeObjective(
            smooth, SeparableRegularizer.zero(), quadratic_metric(smooth),
            F_star=0.0, x_star=x_star,
        )
        x0 = rng.standard_normal(mat.N)
        order = tuple(int(v) for v in rng.integers(0, n, size=150))
        law = SamplingLaw.uniform(n, seed=0, fixed_order=order)
        common = dict(eps=None, max_block_updates=150, stagnation_window=10**9)
        exact = icd_run(obj, x0.copy(), InexactnessPolicy(), law,
                        SolverConfig(method="exact"), **common)
        inexact = icd_run(obj, x0.copy(), InexactnessPolicy.uniform(1e-24), law,
                          SolverConfig(method="cg"), **common)
        rel = np.linalg.norm(exact.x - inexact.x) / (1 + np.linalg.norm(exact.x))
        ok = ok and rel <= 1e-8
    _report(2, "exact-limit equivalence", ok)


def test_criterion_3_complexity_degeneracy():
    """With alpha = beta = 0, both bound evaluators reduce to the
    exact-method closed forms within +1 of rounding."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        c = float(rng.uniform(1.0, 300.0))
        xi0 = float(rng.uniform(0.5, 80.0))
        rho = float(rng.uniform(0.05, 0.95))
        eps_i = float(rng.uniform(0.01, 0.99)) * min(c, xi0)
        res_i = iterations_case_i(BoundInputs(c=c, alpha=0.0, beta=0.0,
                                              eps=eps_i, rho=rho, xi0=xi0))
        ok = ok and res_i.feasible and abs(res_i.K - exact_case_i(c, eps_i, rho, xi0)) <= 1.0 + 1e-9
        eps_ii = float(rng.uniform(0.001, 0.9)) * xi0
        res_ii = iterations_case_ii(BoundInputs(c=c, alpha=0.0, beta=0.0,
                                                eps=eps_ii, rho=rho, xi0=xi0))
        ok = ok and res_ii.feasible and abs(res_ii.K - exact_case_ii(c, eps_ii, rho, xi0)) <= 1.0 + 1e-9
    _report(3, "complexity degeneracy", ok)


def test_criterion_4_monte_carlo_bound_validity():
    """Linear-rate bound holds empirically: running exactly K block
    updates reaches F - F* <= eps in at least a 1 - rho fraction of
    200 seeded runs."""
    start = time.time()
    n, N_i = 5, 10
    N, M = n * N_i, 2 * n * N_i
    rng = np.random.default_rng(42)
    A = rng.standard_normal((M, N))
    x_star = rng.standard_normal(N)
    p = BlockPartition((N_i,) * n)
    smooth = QuadraticSmooth(sp.csc_matrix(A), A @ x_star, p)
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth),
        F_star=0.0, x_star=x_star,
    )
    mu = mu_quadratic(obj, WeightVector((1.0,) * n))
    c2 = n / mu
    x0 = np.zeros(N)
    xi0 = obj.start(x0).F_value()
    eps, rho = 1.0, 0.2
    beta = 0.1 * eps * rho / c2  # strictly inside the feasibility region
    bound = iterations_case_ii(
        BoundInputs(c=c2, alpha=0.0, beta=beta, eps=eps, rho=rho, xi0=xi0)
    )
    assert bound.feasible
    # rigorous inner stopping certifies the model gap itself
    lam_mins = [float(np.linalg.eigvalsh(B).min()) for B in obj.metric.operators]
    successes = 0
    for seed in range(200):
        res = icd_run(
            obj, x0, InexactnessPolicy.uniform(beta), SamplingLaw.uniform(n, seed=seed),
            SolverConfig(method="cg", rigorous=True, lambda_min_estimates=lam_mins),
            eps=None, max_block_updates=bound.K, stagnation_window=10**9,
        )
        successes += res.F_final - obj.F_star <= eps
    freq = successes / 200
    elapsed = time.time() - start
    print(f"  K={bound.K}, empirical frequency {freq:.3f} (need >= {1 - rho}), {elapsed:.0f}s")
    _report(4, "Monte Carlo bound validity", freq >= 1 - rho and elapsed < 180)


def test_criterion_5_tall_spectrum():
    """Tall blocks: N_i - r eigenvalues equal one, r exceed one, and the
    trace identity and Frobenius bound hold."""
    ok = True
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        N_i = int(rng.integers(5, 101))
        M_i = N_i + int(rng.integers(5, 60))
        ell = int(rng.integers(1, 11))
        mat, _, _ = ba.generate(
            ba.GeneratorSpec(n=1, M_i=M_i, N_i=N_i, ell=ell, seed=400 + trial)
        )
        rep = ba.spectrum_report(mat, 0, "PB")
        counts_ok = (
            rep.counts["equal_one"] == N_i - rep.rank_D
            and rep.counts["greater_one"] == rep.rank_D
            and rep.counts["less_one"] == 0
        )
        trace_ok = (
            abs(rep.trace_lhs - rep.trace_rhs) <= 1e-10 * max(1.0, abs(rep.trace_lhs))
            and rep.trace_rhs <= rep.trace_bound * (1 + 1e-10) + 1e-12
        )
        ok = ok and counts_ok and trace_ok
    _report(5, "tall-block spectrum", ok)


def test_criterion_6_wide_spectrum():
    """Wide blocks: shifted-preconditioner eigenvalue multiset, interval
    counts, and the trace formula."""
    ok = True
    rho_shift = 0.5
    for trial in range(50):
        rng = np.random.default_rng(500 + trial)
        M_i = int(rng.integers(4, 12))
        N_i = M_i + int(rng.integers(4, 12))
        ell = N_i - M_i + int(rng.integers(0, 4))
        mat, _, _ = ba.generate(
            ba.GeneratorSpec(n=1, M_i=M_i, N_i=N_i, ell=ell, d_fill=1.0, d_scale=3.0,
                             shape="wide", seed=600 + trial)
        )
        # multiset {lambda_j/(lambda_j + rho)} plus N_i - M_i zeros
        rp = ba.spectrum_report(mat, 0, "PhatP", rho_shift=rho_shift)
        C = mat.C_blocks[0].toarray()
        lam = np.linalg.eigvalsh(C @ C.T)
        expected = np.sort(np.concatenate([np.zeros(N_i - M_i), lam / (lam + rho_shift)]))
        multiset_ok = np.allclose(np.sort(rp.eigenvalues), expected, atol=1e-10)

        rb = ba.spectrum_report(mat, 0, "PhatB", rho_shift=rho_shift)
        s, r = rb.rank_A, rb.rank_D
        counts_ok = (
            rb.counts["zero"] == N_i - s
            and rb.counts["in_zero_one"] == s - r
            and rb.counts["greater_one"] == r
            and rb.counts["above_bound"] == 0
        )
        trace_ok = abs(rb.trace_lhs - rb.trace_rhs) <= 1e-10 * max(1.0, abs(rb.trace_lhs))
        ok = ok and multiset_ok and counts_ok and trace_ok
    _report(6, "wide-block spectrum", ok)


def test_criterion_7_l1_experiment_shape():
    """Lasso at scale: loose and tight duality-gap tolerances reach the
    target in (nearly) the same number of outer updates."""
    start = time.time()
    N, n = 2000, 10
    obj = lasso_instance(2 * N, N, (N // n,) * n, lam=0.01, seed=1)
    order = tuple(k % n for k in range(20000))
    outer = {}
    ok = True
    for beta in (1e-4, 1e-8):
        law = SamplingLaw.uniform(n, seed=0, fixed_order=order)
        res = icd_run(
            obj, np.zeros(N), InexactnessPolicy.uniform(beta), law,
            SolverConfig(method="prox"), eps=1e-4, max_block_updates=20000,
        )
        ok = ok and res.converged and res.F_final - obj.F_star < 1e-4
        outer[beta] = len(res.records)
    lo, hi = min(outer.values()), max(outer.values())
    elapsed = time.time() - start
    print(f"  outer updates: {outer}, {elapsed:.0f}s")
    _report(7, "l1 experiment shape", ok and (hi - lo) <= 0.1 * hi and elapsed < 300)


def test_criterion_8_certificate_soundness():
    """Every accepted update passes the vacuous guard and its mode's
    delta certificate, across smooth and nonsmooth paths."""
    checked = 0
    ok = True

    def run_instrumented(obj, x0, policy, law, solver, steps):
        nonlocal checked, ok
        rng = np.random.default_rng(law.seed)
        state = obj.start(x0)
        F = state.F_value()
        for i in sample_block(law, rng, 0, steps):
            deltas = delta_budget(policy, F, obj.F_star, law.n)
            grad = obj.block_gradient(state, i)
            t, stats, fallback = compute_update(obj, state, i, float(deltas[i]), solver)
            v_t = obj.model_value(state, i, t, grad)
            v_0 = obj.model_value(state, i, np.zeros(t.size), grad)
            ok = ok and v_t <= v_0 + 1e-12 * (1 + abs(v_0))
            if not fallback and stats.converged and deltas[i] > 0:
                ok = ok and stats.certificate <= deltas[i]
            checked += 1
            state.apply_update(i, t)
            F = state.F_value()

    rng = np.random.default_rng(5)
    # smooth path, CG with a loose additive budget
    obj = _consistent_quadratic(rng, 60, (10, 10, 10))
    run_instrumented(obj, rng.standard_normal(30), InexactnessPolicy.uniform(0.1),
                     SamplingLaw.uniform(3, seed=1), SolverConfig(method="cg"), 300)
    # smooth path, PCG on block-angular structure
    mat, x_star, b = ba.generate(ba.GeneratorSpec(n=3, M_i=40, N_i=12, ell=2, seed=8))
    smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
    obj2 = CompositeObjective(smooth, SeparableRegularizer.zero(),
                              quadratic_metric(smooth), F_star=0.0, x_star=x_star)
    factors = [incomplete_cholesky(ba.build_preconditioner(mat, i), 0.1) for i in range(3)]
    run_instrumented(obj2, rng.standard_normal(36), InexactnessPolicy.uniform(0.1),
                     SamplingLaw.uniform(3, seed=2),
                     SolverConfig(method="pcg", precond_factors=factors), 300)
    # l1 path, duality-gap certificates
    obj3 = lasso_instance(80, 40, (20, 20), lam=0.05, seed=3)
    run_instrumented(obj3, np.zeros(40), InexactnessPolicy.uniform(1e-6),
                     SamplingLaw.uniform(2, seed=3), SolverConfig(method="prox"), 200)

    print(f"  {checked} accepted updates checked")
    _report(8, "certificate soundness", ok and checked >= 800)


def test_criterion_9_scaled_comparison_report():
    """Report-only wall-time/inner-iteration comparison on the scaled
    analog; the one assertion is PCG median <= CG median on tall ell=1."""
    medians = {}
    for ell in (1, 10):
        mat, x_star, b = ba.generate(
            ba.GeneratorSpec(n=10, M_i=2000, N_i=500, ell=ell, seed=3)
        )
        smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
        obj = CompositeObjective(smooth, SeparableRegularizer.zero(),
                                 quadratic_metric(smooth), F_star=0.0, x_star=x_star)
        factors = [
            incomplete_cholesky(ba.build_preconditioner(mat, i), 0.1) for i in range(10)
        ]
        configs = {
            "exact": SolverConfig(method="exact"),
            "cg": SolverConfig(method="cg"),
            "pcg": SolverConfig(method="pcg", precond_factors=factors),
        }
        for name, solver in configs.items():
            t0 = time.time()
            res = icd_run(
                obj, np.zeros(mat.N), InexactnessPolicy.uniform(1e-8),
                SamplingLaw.uniform(10, seed=0), solver, eps=0.1,
                max_block_updates=250,
            )
            per_update = (time.time() - t0) / max(1, len(res.records))
            med = float(np.median([r.inner_iterations for r in res.records]))
            print(
                f"  ell={ell} {name}: outer={len(res.records)} median_inner={med} "
                f"per_update={per_update * 1000:.1f}ms final_F={res.F_final:.3g}"
            )
            medians[(ell, name)] = med
        if ell == 1:
            # loose-tolerance per-update cost: an exact update is two
            # triangular solves with the block's kept Cholesky factor
            # whatever the tolerance, while CG stops after a handful of
            # matrix-vector products
            for name in ("exact", "cg"):
                t0 = time.time()
                res = icd_run(
                    obj, np.zeros(mat.N), InexactnessPolicy.uniform(1e-1),
                    SamplingLaw.uniform(10, seed=0), configs[name], eps=0.1,
                    max_block_updates=250,
                )
                per_update = (time.time() - t0) / max(1, len(res.records))
                print(
                    f"  ell={ell} {name} (loose beta=0.1): "
                    f"outer={len(res.records)} per_update={per_update * 1000:.1f}ms"
                )
    _report(9, "scaled comparison report", medians[(1, "pcg")] <= medians[(1, "cg")])
