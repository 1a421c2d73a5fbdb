"""Randomized outer loop: sample a block, budget the inexactness, solve
the block subproblem, apply the update, record the iteration.

Every accepted update is checked against the vacuous guard
V_i(x, t) <= V_i(x, 0); a violating update is replaced by t = 0 and the
event is logged in the iteration record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from icdkit.blocks import block_view
from icdkit.inner import (
    LinearSubproblem,
    SolveStats,
    StopMode,
    StopRule,
    _TriangularPreconditioner,
    estimate_operator_norm_sq,
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
    "RunWorkspace",
    "IterationRecord",
    "RunResult",
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

    The expected budget delta_bar = sum_i p_i delta^(i) must stay below
    alpha*(F(x_k) - F*) + beta whenever F* is known.
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

    @classmethod
    def exact(cls):
        return cls(0.0, 0.0)

    @classmethod
    def uniform(cls, beta: float):
        return cls(0.0, beta)


@dataclass(frozen=True)
class SamplingLaw:
    """Block sampling probabilities, or a pre-generated fixed block order."""

    p: tuple[float, ...]
    seed: int = 0
    fixed_order: tuple[int, ...] | None = None

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


def sample_block(law: SamplingLaw, rng: np.random.Generator, k: int) -> int:
    if law.fixed_order is not None:
        if k >= len(law.fixed_order):
            raise IndexError("fixed block-order list exhausted")
        return law.fixed_order[k]
    return int(rng.choice(law.n, p=law.p))


def delta_budget(
    policy: InexactnessPolicy,
    F_k: float,
    F_star: float | None,
    p,
) -> tuple[np.ndarray, float]:
    """Per-block deltas and their expectation delta_bar = sum p_i delta^(i)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if policy.rule is DeltaRule.UNIFORM_BETA:
        if policy.alpha > 0:
            raise ValueError("uniform-beta rule carries no multiplicative term")
        deltas = np.full(n, policy.beta)
    elif policy.rule is DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE:
        if F_star is None:
            raise ValueError("multiplicative error requires a known F*")
        deltas = np.full(n, policy.alpha * (F_k - F_star) + policy.beta)
    else:
        deltas = np.asarray(policy.per_block, dtype=float)
        if deltas.shape[0] != n:
            raise ValueError("per-block delta list has wrong length")
    delta_bar = float(p @ deltas)
    if F_star is not None:
        bound = policy.alpha * (F_k - F_star) + policy.beta
        if delta_bar > bound + 1e-12 * (1.0 + abs(bound)):
            raise ValueError("delta_bar exceeds the alpha/beta budget")
    return deltas, delta_bar


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver selection for compute_update.

    method: "exact" (Cholesky), "cg" or "pcg" for a zero regularizer;
    "prox", the only method for l1 and group lasso.
    pcg requires per-block preconditioner factors (incomplete Cholesky of
    C_i^T C_i or its shifted variant); each run wraps a block's factor
    into its preconditioner once, on the block's first pcg update.
    """

    method: str = "exact"
    max_inner_iters: int = 10_000
    precond_factors: list | None = None
    rigorous: bool = False
    lambda_min_estimates: list | None = None


@dataclass
class RunWorkspace:
    """Per-run caches, keyed by block: prox step constants and PCG
    preconditioners. Each icd_run owns one, so repeated runs stay
    independent."""

    lipschitz: dict = field(default_factory=dict)
    preconditioners: dict = field(default_factory=dict)

    def block_lipschitz(self, objective: CompositeObjective, i: int) -> float:
        if i not in self.lipschitz:
            self.lipschitz[i] = estimate_operator_norm_sq(objective.smooth.blocks[i])
        return self.lipschitz[i]

    def block_preconditioner(self, factors, i: int) -> _TriangularPreconditioner:
        if i not in self.preconditioners:
            self.preconditioners[i] = _TriangularPreconditioner(factors[i])
        return self.preconditioners[i]


def compute_update(
    objective: CompositeObjective,
    state: ResidualState,
    i: int,
    delta: float,
    solver: SolverConfig,
    workspace: RunWorkspace | None = None,
) -> tuple[np.ndarray, SolveStats, bool]:
    """Inexact update for block i with budget delta.

    Returns (t, stats, vacuous_fallback). delta = 0 routes the smooth
    path to the exact Cholesky solve. Without a workspace the update
    gets a fresh one, so it neither reads nor leaves cached state.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    ws = workspace if workspace is not None else RunWorkspace()
    grad = objective.block_gradient(state, i)
    kind = objective.reg.kind
    Ni = objective.partition.sizes[i]

    if kind is RegularizerKind.ZERO and not np.any(grad):
        return np.zeros(Ni), SolveStats(0, 0.0, StopMode.RESIDUAL_SQUARED, True), False

    if kind is RegularizerKind.ZERO:
        li = objective.metric.lipschitz[i]
        g = -grad / li
        B = objective.metric.operators[i]
        method = solver.method if delta > 0 else "exact"
        if method == "exact":
            t, stats = solve_exact_cholesky(B, g)
        else:
            stop = StopRule(
                beta=delta,
                max_inner_iters=solver.max_inner_iters,
                rigorous=solver.rigorous,
                lambda_min_estimate=(
                    solver.lambda_min_estimates[i]
                    if solver.rigorous and solver.lambda_min_estimates
                    else None
                ),
            )
            prob = LinearSubproblem(B, g)
            if method == "cg":
                t, stats = solve_cg(prob, stop)
            elif method == "pcg":
                if solver.precond_factors is None:
                    raise ValueError("pcg requires preconditioner factors")
                pre = ws.block_preconditioner(solver.precond_factors, i)
                t, stats = solve_pcg(prob, pre, stop)
            else:
                raise ValueError(f"unknown smooth-path method {method!r}")
    else:
        if solver.method != "prox":
            raise ValueError(
                f"the {kind.value} path needs method 'prox', not {solver.method!r}"
            )
        # looked up at call time, so a wrapper installed on this module sees it
        solve = solve_l1_subproblem if kind is RegularizerKind.L1 else solve_group_subproblem
        t, stats = solve(
            objective.smooth.blocks[i],
            state.r,
            block_view(state.x, i, objective.partition),
            objective.reg.block_weight(i),
            beta=delta,
            max_iters=solver.max_inner_iters,
            lipschitz=ws.block_lipschitz(objective, i),
        )

    # vacuous guard: never accept an update worse than t = 0. V_i(x, 0) is
    # Psi_i(x^(i)), and V_i(x, t) reuses the gradient computed above.
    xi = block_view(state.x, i, objective.partition)
    v_t = objective.model_from_gradient(i, grad, xi, t)
    v_0 = objective.reg.block_value(i, xi)
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


@dataclass
class RunResult:
    x: np.ndarray
    records: list[IterationRecord]
    converged: bool
    F_final: float

    @property
    def block_updates(self) -> int:
        return len(self.records)

    @property
    def inner_iterations(self) -> int:
        return sum(r.inner_iterations for r in self.records)

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

    Stops when F - F* < eps (requires a known F*), when the update budget
    is exhausted, or on stagnation (relative F decrease below 1e-12 over
    10*n consecutive updates when no eps target is available).
    """
    solver = solver if solver is not None else SolverConfig()
    workspace = RunWorkspace()
    if eps is not None and objective.F_star is None:
        raise ValueError("eps-based stopping requires a known F*")
    if law.n != objective.partition.n:
        raise ValueError(
            f"sampling law has {law.n} blocks but the partition has {objective.partition.n}"
        )
    rng = np.random.default_rng(law.seed)
    state = objective.start(x0)
    records: list[IterationRecord] = []
    F = state.F_value()
    F_star = objective.F_star
    n = objective.partition.n
    window = stagnation_window if stagnation_window is not None else 10 * n
    start = time.perf_counter()
    cum_inner = 0
    stagnant = 0
    converged = eps is not None and F_star is not None and F - F_star < eps
    k = 0
    while not converged and k < max_block_updates:
        deltas, _ = delta_budget(policy, F, F_star, law.p)
        try:
            i = sample_block(law, rng, k)
        except IndexError:
            break
        t, stats, fallback = compute_update(
            objective, state, i, float(deltas[i]), solver, workspace
        )
        state.apply_update(i, t)
        F_new = state.F_value()
        cum_inner += stats.iterations
        records.append(
            IterationRecord(
                k=k,
                block=i,
                delta=float(deltas[i]),
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
        k += 1
        if eps is not None and F_star is not None and F - F_star < eps:
            converged = True
        if eps is None and stagnant >= window:
            converged = True
    return RunResult(x=state.x, records=records, converged=converged, F_final=F)
