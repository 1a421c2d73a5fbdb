"""Randomized outer loop: sample a block, budget the inexactness, solve
the block subproblem, apply the update, record the iteration.

Every accepted update is checked against the vacuous guard
V_i(x, t) <= V_i(x, 0); a violating update is replaced by t = 0 and the
event is logged in the iteration record.

The per-update path does only the update's arithmetic: block indices are
drawn in batches from the law's CDF (the same indices, from the same
stream, as one ``rng.choice(n, p=p)`` per update), the budget is checked
once, before the first update, and computed once per run when it cannot
depend on F, and every run ends with a ``stop_reason``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

import numpy as np

from icdkit.inner import (
    LinearSubproblem,
    SolveStats,
    StopMode,
    _TriangularPreconditioner,
    solve_cg,
    solve_exact_cholesky,
    solve_group_subproblem,
    solve_l1_subproblem,
    solve_pcg,
)
from icdkit.objective import CompositeObjective, RegularizerKind, ResidualState

__all__ = [
    "DeltaRule",
    "InexactnessPolicy",
    "SamplingLaw",
    "SolverConfig",
    "check_method_fits",
    "IterationRecord",
    "RunResult",
    "STOP_REASONS",
    "sample_block",
    "delta_budget",
    "compute_update",
    "icd_run",
]


class DeltaRule(Enum):
    UNIFORM_BETA = "uniform_beta"
    MULTIPLICATIVE_PLUS_ADDITIVE = "multiplicative_plus_additive"
    PER_BLOCK_LIST = "per_block_list"


@dataclass(frozen=True)
class InexactnessPolicy:
    """Per-iteration inexactness budgets delta_k^(i).

    The theorems assume delta_bar = sum_i p_i delta^(i) <= alpha*(F(x_k)
    - F*) + beta at every update; every rule meets that by construction
    once check has passed. Only the multiplicative rule takes alpha > 0:
    a fixed budget cannot shrink with F, so its alpha would only hide a
    failure.
    """

    alpha: float = 0.0
    beta: float = 0.0
    rule: DeltaRule = DeltaRule.UNIFORM_BETA
    per_block: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.rule is DeltaRule.PER_BLOCK_LIST and self.per_block is None:
            raise ValueError("per-block rule requires explicit deltas")
        if self.per_block is not None and any(d < 0 for d in self.per_block):
            raise ValueError(f"per-block budgets must be nonnegative, got {self.per_block}")
        if self.rule is not DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE and self.alpha > 0:
            raise ValueError(
                f"{self.rule.value} rule carries no multiplicative term, got alpha = {self.alpha}"
            )

    @classmethod
    def uniform(cls, beta: float):
        return cls(0.0, beta)

    def check(self, p, F_star: float | None):
        """Raise ValueError unless the budget is admissible under sampling
        probabilities p and optimal value F_star (None when unknown): the
        multiplicative rule needs F*, a per-block list one entry per block
        and delta_bar <= beta. icd_run calls this before its first update."""
        if self.rule is DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE and F_star is None:
            raise ValueError("multiplicative error requires a known F*")
        if self.rule is DeltaRule.PER_BLOCK_LIST:
            deltas, n = np.asarray(self.per_block, dtype=float), len(p)
            if len(deltas) != n:
                raise ValueError(f"per-block delta list has {len(deltas)} entries for {n} blocks")
            delta_bar = float(np.asarray(p, dtype=float) @ deltas)
            if delta_bar > self.beta + 1e-12 * (1.0 + self.beta):
                raise ValueError(f"per-block delta_bar {delta_bar!r} exceeds beta {self.beta!r}")


@dataclass(frozen=True)
class SamplingLaw:
    """Block sampling probabilities, or a pre-generated fixed block order.

    cdf is the normalized cumulative sum of p, formed once as
    ``rng.choice(n, p=p)`` forms it on every call.
    """

    p: tuple[float, ...]
    seed: int = 0
    fixed_order: tuple[int, ...] | None = None
    cdf: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if any(v <= 0 for v in p):
            raise ValueError("probabilities must be positive")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        bad = [i for i in self.fixed_order or () if not 0 <= i < len(p)]
        if bad:
            raise ValueError(f"fixed block order: index {bad[0]} outside [0, {len(p)})")
        object.__setattr__(self, "p", p)
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def uniform(cls, n: int, seed: int = 0, fixed_order=None):
        return cls(
            tuple([1.0 / n] * n),
            seed,
            None if fixed_order is None else tuple(int(i) for i in fixed_order),
        )

    @property
    def n(self) -> int:
        return len(self.p)


# block indices icd_run draws per sample_block call: one call costs about
# three single rng.choice calls, and a run draws at most this many unused
_DRAW_BATCH = 1024


def sample_block(law: SamplingLaw, rng: np.random.Generator, k: int, count: int):
    """Block indices of updates k, ..., k + count - 1.

    A fixed order gives fewer once it runs out, none past its end. Random
    draws equal ``count`` sequential ``int(rng.choice(law.n, p=law.p))``
    calls: each consumes one uniform from rng and searches the same CDF.
    """
    if law.fixed_order is not None:
        return law.fixed_order[k:k + count]
    return law.cdf.searchsorted(rng.random(count), side="right").tolist()


def _draws(law: SamplingLaw, rng: np.random.Generator):
    """Every block index the law gives, _DRAW_BATCH per sample_block call;
    ends after the first short batch, which only a fixed order gives."""
    k = 0
    while True:
        batch = sample_block(law, rng, k, _DRAW_BATCH)
        yield from batch
        if len(batch) < _DRAW_BATCH:
            return
        k += _DRAW_BATCH


def delta_budget(
    policy: InexactnessPolicy, F_k: float, F_star: float | None, n: int
) -> np.ndarray:
    """Per-block deltas at objective value F_k, for a policy that passed
    InexactnessPolicy.check."""
    if policy.rule is DeltaRule.UNIFORM_BETA:
        return np.full(n, policy.beta)
    if policy.rule is DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE:
        return np.full(n, policy.alpha * (F_k - F_star) + policy.beta)
    return np.asarray(policy.per_block, dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver selection for compute_update, checked once when built.

    method: "exact" (Cholesky), "cg" or "pcg" for a zero regularizer;
    "prox", the only method for l1 and group lasso. A zero budget routes
    the smooth path to the exact solve whatever the method.
    max_inner_iters, at least 1, caps each inner solve.
    pcg takes one lower-triangular factor per block (incomplete Cholesky
    of C_i^T C_i or its shifted variant); each is wrapped into its
    preconditioner here, once, and every run with this config shares it.
    Rigorous cg and pcg take one positive lambda_min(B_i) estimate per
    block; compute_update scales each block's tolerance by it.
    """

    method: str = "exact"
    max_inner_iters: int = 10_000
    precond_factors: list | None = None
    rigorous: bool = False
    lambda_min_estimates: list | None = None
    preconditioners: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.method not in ("exact", "cg", "pcg", "prox"):
            raise ValueError(f"unknown inner solver {self.method!r}")
        if self.max_inner_iters < 1:
            raise ValueError(f"max_inner_iters must be at least 1, got {self.max_inner_iters}")
        if self.method == "pcg":
            if self.precond_factors is None:
                raise ValueError("pcg requires preconditioner factors")
            pre = tuple(_TriangularPreconditioner(L) for L in self.precond_factors)
            object.__setattr__(self, "preconditioners", pre)
        if self.rigorous and self.method in ("cg", "pcg"):
            est = self.lambda_min_estimates
            if est is None or not all(v > 0 for v in est):
                raise ValueError(
                    f"rigorous {self.method} requires lambda_min estimates, all positive; got {est}"
                )


def check_method_fits(method: str, kind: RegularizerKind):
    """Raise ValueError unless an inner method can solve blocks of this regularizer."""
    if (kind is RegularizerKind.ZERO) == (method == "prox"):
        raise ValueError(
            f"method {method!r} does not fit the {kind.value} regularizer: "
            "l1 and group lasso take 'prox', zero takes exact, cg or pcg"
        )


def compute_update(
    objective: CompositeObjective,
    state: ResidualState,
    i: int,
    delta: float,
    solver: SolverConfig,
) -> tuple[np.ndarray, SolveStats, bool]:
    """Inexact update for block i with budget delta.

    Returns (t, stats, vacuous_fallback). delta = 0 routes the smooth
    path to the exact Cholesky solve.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    kind = objective.reg.kind
    check_method_fits(solver.method, kind)
    grad = objective.block_gradient(state, i)
    Ni = objective.partition.sizes[i]

    if kind is RegularizerKind.ZERO and not grad.any():
        return np.zeros(Ni), SolveStats(0, 0.0, StopMode.RESIDUAL_SQUARED, True), False

    prob = LinearSubproblem(objective.metric, i, -grad)
    if kind is RegularizerKind.ZERO:
        method = solver.method if delta > 0 else "exact"
        if method == "exact":
            t, stats = solve_exact_cholesky(prob)
        else:
            tol = delta * solver.lambda_min_estimates[i] if solver.rigorous else delta
            if method == "cg":
                t, stats = solve_cg(prob, tol, solver.max_inner_iters)
            else:
                t, stats = solve_pcg(prob, solver.preconditioners[i], tol, solver.max_inner_iters)
            if solver.rigorous:
                stats.mode = StopMode.RESIDUAL_SQUARED_SCALED
    else:
        # looked up at call time, so a wrapper installed on this module sees it
        solve = solve_l1_subproblem if kind is RegularizerKind.L1 else solve_group_subproblem
        mu, lipschitz = objective.metric.prox_constants(i)
        t, stats = solve(
            prob,
            state.f_value(),
            state.x[objective.partition.range(i)],
            objective.reg.block_weight(i),
            beta=delta,
            max_iters=solver.max_inner_iters,
            lipschitz=lipschitz,
            mu=mu,
        )

    # vacuous guard: never accept an update worse than t = 0. V_i(x, 0) is
    # Psi_i(x^(i)), and V_i(x, t) reuses the gradient computed above.
    v_t = objective.model_value(state, i, t, grad)
    v_0 = objective.reg.block_value(i, state.x[objective.partition.range(i)])
    if v_t > v_0 + 1e-12 * (1.0 + abs(v_0)):
        return np.zeros(Ni), stats, True
    return t, stats, False


@dataclass
class IterationRecord:
    k: int
    block: int
    delta: float
    inner_iterations: int
    F: float
    F_minus_Fstar: float | None
    certificate: float
    certificate_mode: str
    cum_inner_iterations: int
    wall_time_s: float
    vacuous_fallback: bool = False
    inner_converged: bool = True


STOP_REASONS = ("eps", "budget", "stagnated", "order_exhausted")


@dataclass
class RunResult:
    """A run's iterate, records and end state.

    stop_reason is one of STOP_REASONS: F - F* fell below eps, the update
    budget ran out, F stagnated (no eps target), or the fixed block order
    ran out. converged is True for the first and the third.
    """

    x: np.ndarray
    records: list[IterationRecord]
    F_final: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("eps", "stagnated")

    @property
    def block_updates(self) -> int:
        return len(self.records)

    @property
    def inner_iterations(self) -> int:
        return sum(r.inner_iterations for r in self.records)

    @property
    def unconverged_inner(self) -> int:
        """Updates whose inner solve ended above its tolerance: at the
        iteration cap or, for prox, at a fixed point."""
        return sum(not r.inner_converged for r in self.records)

    @property
    def wall_time_s(self) -> float:
        return self.records[-1].wall_time_s if self.records else 0.0


def icd_run(
    objective: CompositeObjective,
    x0: np.ndarray,
    policy: InexactnessPolicy,
    law: SamplingLaw,
    solver: SolverConfig | None = None,
    eps: float | None = None,
    max_block_updates: int = 100_000,
    stagnation_window: int | None = None,
) -> RunResult:
    """Run the inexact coordinate descent outer loop.

    Each update takes the next block the law draws (_DRAW_BATCH indices
    per sample_block call), budgets its delta, solves its subproblem and
    applies the step. The run stops when F - F* < eps (eps a positive
    finite number; requires a known F*), on stagnation (relative F decrease below 1e-12 over 10*n
    consecutive updates when no eps target is available), after
    max_block_updates updates, or when a fixed block order runs out;
    RunResult.stop_reason says which.
    """
    solver = solver if solver is not None else SolverConfig()
    n = objective.partition.n
    if eps is not None and not 0 < eps < np.inf:
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    if eps is not None and objective.F_star is None:
        raise ValueError("eps-based stopping requires a known F*")
    if law.n != n:
        raise ValueError(f"sampling law has {law.n} blocks but the partition has {n}")
    if max_block_updates < 0:
        raise ValueError(f"max_block_updates must be nonnegative, got {max_block_updates}")
    for name in ("preconditioners", "lambda_min_estimates"):
        per_block = getattr(solver, name)
        if per_block is not None and len(per_block) != n:
            raise ValueError(f"solver has {len(per_block)} {name} but the partition has {n} blocks")
    policy.check(law.p, objective.F_star)
    state = objective.start(x0)
    records: list[IterationRecord] = []
    F = state.F_value()
    F_star = objective.F_star
    window = stagnation_window if stagnation_window is not None else 10 * n
    # only the multiplicative budget changes with F; any other is computed
    # once, at the first update
    budget_tracks_F = policy.rule is DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE
    deltas = None
    stop_reason = "eps" if eps is not None and F - F_star < eps else None
    rng = np.random.default_rng(law.seed)
    blocks = () if stop_reason else islice(_draws(law, rng), max_block_updates)
    start = time.perf_counter()
    cum_inner = 0
    stagnant = 0
    for k, i in enumerate(blocks):
        if deltas is None or budget_tracks_F:
            deltas = delta_budget(policy, F, F_star, n)
        delta = float(deltas[i])
        t, stats, fallback = compute_update(objective, state, i, delta, solver)
        state.apply_update(i, t)
        F_new = state.F_value()
        cum_inner += stats.iterations
        records.append(
            IterationRecord(
                k=k,
                block=i,
                delta=delta,
                inner_iterations=stats.iterations,
                F=F_new,
                F_minus_Fstar=None if F_star is None else F_new - F_star,
                certificate=stats.certificate,
                certificate_mode=stats.mode.value,
                cum_inner_iterations=cum_inner,
                wall_time_s=time.perf_counter() - start,
                vacuous_fallback=fallback,
                inner_converged=stats.converged,
            )
        )
        if F - F_new < 1e-12 * (1.0 + abs(F)):
            stagnant += 1
        else:
            stagnant = 0
        F = F_new
        if eps is not None:
            if F - F_star < eps:
                stop_reason = "eps"
                break
        elif stagnant >= window:
            stop_reason = "stagnated"
            break
    if stop_reason is None:
        stop_reason = "budget" if len(records) == max_block_updates else "order_exhausted"
    return RunResult(x=state.x, records=records, F_final=F, stop_reason=stop_reason)
