"""Configuration-driven experiment runner.

Configs are flat ``section.key = value`` text (diff-friendly, no schema
dependency) that ``parse_config`` parses; the caller reads the file.
Every output file starts with the echoed config so a run can be
reproduced from its own artifacts. A key outside CONFIG_KEYS, a bad
problem, regularizer or policy key, a policy the sampling law or an
unknown F* does not admit (InexactnessPolicy.check), a stop.eps that is
not a positive finite number or comes with an unknown F*, a bad
sampling.p or sampling.fixed_order_path, or a value that does not parse
raises ValueError before any solver runs; a solver's setup or run error is
recorded as its failure. One sampling law serves the whole experiment,
re-seeded per repetition, and each solver's RunSummary keeps its
(repetition, RunResult) pairs, which both CSVs are written from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from icdkit import block_angular, mmio
from icdkit.blocks import BlockPartition
from icdkit.core import (
    STOP_REASONS,
    DeltaRule,
    InexactnessPolicy,
    RunResult,
    SamplingLaw,
    SolverConfig,
    check_method_fits,
    icd_run,
)
from icdkit.inner import incomplete_cholesky
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
)

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "RunSummary",
    "parse_config",
    "build_problem",
    "run_experiment",
]

# every key the harness reads, and no other; README's key table lists them
CONFIG_KEYS = frozenset("""
    problem.source problem.path problem.transpose problem.block_sizes problem.b_path
    problem.xstar_seed generate.n generate.M_i generate.N_i generate.ell generate.nnz_per_col
    generate.d_fill generate.shape generate.seed reg.kind reg.lam reg.d policy.rule
    policy.alpha policy.beta policy.per_block sampling.p sampling.seed sampling.fixed_order_path
    inner.solver inner.max_iters inner.drop_tol inner.rho_shift stop.eps
    stop.max_block_updates run.repetitions output.dir output.prefix
""".split())

RECORD_COLUMNS = [
    "run_id",
    "k",
    "block",
    "delta_used",
    "inner_iters",
    "F",
    "F_minus_Fstar",
    "cum_inner_iters",
    "wall_time_s",
    "certificate",
    "certificate_mode",
    "vacuous_fallback",
    "inner_converged",
]


def _cast(key, text, cast):
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{key}: expected {cast.__name__}, got {text!r}") from None


@dataclass
class ExperimentConfig:
    """Flat experiment description; raw holds the original key-value pairs."""

    raw: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def get_float(self, key, default=None):
        v = self.raw.get(key)
        return default if v is None else _cast(key, v, float)

    def get_int(self, key, default=None):
        v = self.raw.get(key)
        return default if v is None else _cast(key, v, int)

    def get_bool(self, key, default=False):
        v = self.raw.get(key)
        if v is None:
            return default
        word = str(v).lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"{key}: expected true, false, yes, no, 1 or 0, got {v!r}")
        return word in ("1", "true", "yes")

    def get_list(self, key, cast=float):
        v = self.raw.get(key)
        if v is None:
            return None
        return [_cast(key, part, cast) for part in str(v).split(",") if part.strip()]

    def echo_lines(self) -> list[str]:
        return [f"{k} = {self.raw[k]}" for k in sorted(self.raw)]


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; '#' starts a comment."""
    raw = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {line_no}: expected key = value, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return ExperimentConfig(raw)


def build_problem(cfg: ExperimentConfig):
    """Materialize the objective (and block-angular data when generated)."""
    source = cfg.get("problem.source", "generate")
    reg = _build_regularizer(cfg)
    mat = None
    if source == "generate":
        spec = block_angular.GeneratorSpec(
            n=cfg.get_int("generate.n", 4),
            M_i=cfg.get_int("generate.M_i", 60),
            N_i=cfg.get_int("generate.N_i", 20),
            ell=cfg.get_int("generate.ell", 2),
            nnz_per_col=cfg.get_int("generate.nnz_per_col", 20),
            d_fill=cfg.get_float("generate.d_fill", 0.1),
            shape=cfg.get("generate.shape", "tall"),
            seed=cfg.get_int("generate.seed", 0),
        )
        mat, x_star, b = block_angular.generate(spec)
        A, partition = mat.assemble(), mat.partition
    elif source == "matrix_market":
        path = cfg.get("problem.path")
        if path is None:
            raise ValueError("problem.path is required for matrix_market source")
        A = mmio.read_matrix_market(path, transpose=cfg.get_bool("problem.transpose"))
        sizes = cfg.get_list("problem.block_sizes", int)
        if sizes is None:
            raise ValueError("problem.block_sizes must list explicit block sizes")
        partition = BlockPartition(tuple(sizes))
        b_path = cfg.get("problem.b_path")
        if b_path is not None:
            b, x_star = mmio.read_vector_market(b_path), None
        else:
            rng = np.random.default_rng(cfg.get_int("problem.xstar_seed", 0))
            x_star = rng.standard_normal(partition.N)
            b = A @ x_star
    else:
        raise ValueError(f"unknown problem.source {source!r}")
    # b = A x* makes F* = 0 and x* the optimum only without a regularizer
    planted = x_star is not None and reg.kind.value == "zero"
    obj = CompositeObjective(
        QuadraticSmooth(A, b, partition),
        reg,
        F_star=0.0 if planted else None,
        x_star=x_star if planted else None,
    )
    return obj, mat


def _build_regularizer(cfg: ExperimentConfig) -> SeparableRegularizer:
    kind = cfg.get("reg.kind", "zero")
    lam = cfg.get_float("reg.lam", 0.0)
    if kind == "zero":
        return SeparableRegularizer.zero()
    if kind == "l1":
        return SeparableRegularizer.l1(lam)
    if kind == "group_lasso":
        d = cfg.get_list("reg.d")
        if d is None:
            raise ValueError("group lasso requires reg.d")
        return SeparableRegularizer.group_lasso(lam, d)
    raise ValueError(f"unknown reg.kind {kind!r}")


def _build_policy(cfg: ExperimentConfig) -> InexactnessPolicy:
    rule = cfg.get("policy.rule", "uniform_beta")
    alpha = cfg.get_float("policy.alpha", 0.0)
    beta = cfg.get_float("policy.beta", 0.0)
    per_block = cfg.get_list("policy.per_block")
    return InexactnessPolicy(
        alpha,
        beta,
        DeltaRule(rule),
        None if per_block is None else tuple(per_block),
    )


def _build_solver(
    cfg: ExperimentConfig, method: str, objective, mat, max_iters: int
) -> SolverConfig:
    check_method_fits(method, objective.reg.kind)
    factors = None
    if method == "pcg":
        if mat is None:
            raise ValueError("pcg needs block-angular structure for preconditioners")
        drop_tol = cfg.get_float("inner.drop_tol", 0.1)
        rho_shift = cfg.get_float("inner.rho_shift", 0.5)
        factors = [
            incomplete_cholesky(block_angular.build_preconditioner(mat, i, rho_shift), drop_tol)
            for i in range(mat.n)
        ]
    return SolverConfig(
        method=method,
        max_inner_iters=max_iters,
        precond_factors=factors,
    )


@dataclass
class RunSummary:
    """One solver's completed runs, as (repetition, RunResult) pairs, and
    its failures."""

    solver: str
    runs: list[tuple[int, RunResult]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def mean(self, attr: str) -> float:
        """Mean of a RunResult attribute over the runs; nan with no run."""
        values = [getattr(result, attr) for _, result in self.runs]
        return float(np.mean(values)) if values else float("nan")


def run_experiment(cfg: ExperimentConfig, write_files: bool = True) -> dict[str, RunSummary]:
    """Run all configured solvers for the configured repetitions.

    Returns the RunSummary of each solver, by name; optionally writes the
    raw record CSV and the summary CSV, both headed by the echoed config.
    """
    unknown = sorted(set(cfg.raw) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")
    objective, mat = build_problem(cfg)
    policy = _build_policy(cfg)
    default_solver = "cg" if objective.reg.kind.value == "zero" else "prox"
    methods = [m.strip() for m in cfg.get("inner.solver", default_solver).split(",")]
    reps = cfg.get_int("run.repetitions", 1)
    eps = cfg.get_float("stop.eps")
    max_updates = cfg.get_int("stop.max_block_updates", 100_000)
    max_iters = cfg.get_int("inner.max_iters", 10_000)
    for key, value, least in (
        ("run.repetitions", reps, 1),
        ("stop.max_block_updates", max_updates, 0),
        ("inner.max_iters", max_iters, 1),
    ):
        if value < least:
            raise ValueError(f"{key} must be at least {least}, got {value}")
    base_seed = cfg.get_int("sampling.seed", 0)
    n = objective.partition.n
    p = cfg.get_list("sampling.p")
    if p is not None and len(p) != n:
        raise ValueError(f"sampling.p has {len(p)} probabilities but the problem has {n} blocks")
    try:
        law = SamplingLaw.uniform(n, base_seed) if p is None else SamplingLaw(tuple(p), base_seed)
    except ValueError as e:
        raise ValueError(f"sampling.p: {e}") from None
    policy.check(law.p, objective.F_star)
    if eps is not None and not 0 < eps < np.inf:
        raise ValueError(f"stop.eps must be a positive finite number, got {eps}")
    if eps is not None and objective.F_star is None:
        raise ValueError("stop.eps needs a known F* (a planted x* with reg.kind = zero)")
    order_path = cfg.get("sampling.fixed_order_path")
    if order_path:
        try:
            with open(order_path) as fh:
                law = replace(law, fixed_order=tuple(int(tok) for tok in fh.read().split()))
        except (ValueError, OSError) as e:
            raise ValueError(f"sampling.fixed_order_path: {e}") from None
    x0 = np.zeros(objective.partition.N)

    summaries: dict[str, RunSummary] = {}
    for method in methods:
        summary = summaries[method] = RunSummary(solver=method)
        try:
            solver = _build_solver(cfg, method, objective, mat, max_iters)
        except (ValueError, OSError, RuntimeError) as e:
            summary.failures.append(f"setup: {e}")
            continue
        for rep in range(reps):
            try:
                result = icd_run(
                    objective, x0, policy, replace(law, seed=base_seed + rep), solver,
                    eps=eps, max_block_updates=max_updates,
                )
            except (ValueError, RuntimeError) as e:
                summary.failures.append(f"run {rep}: {e}")
                continue
            summary.runs.append((rep, result))

    if write_files:
        out = cfg.get("output.dir", ".")
        os.makedirs(out, exist_ok=True)
        prefix = cfg.get("output.prefix", "experiment")
        _write_records_csv(os.path.join(out, f"{prefix}_records.csv"), cfg, summaries)
        _write_summary_csv(os.path.join(out, f"{prefix}_summary.csv"), cfg, summaries)
    return summaries


def _write_records_csv(path, cfg, summaries):
    with open(path, "w") as fh:
        for line in cfg.echo_lines():
            fh.write(f"# {line}\n")
        fh.write(",".join(["solver"] + RECORD_COLUMNS) + "\n")
        for method, s in summaries.items():
            for rep, result in s.runs:
                for rec in result.records:
                    fstar = "" if rec.F_minus_Fstar is None else repr(rec.F_minus_Fstar)
                    fh.write(
                        f"{method},{rep},{rec.k},{rec.block},{rec.delta!r},"
                        f"{rec.inner_iterations},{rec.F!r},{fstar},"
                        f"{rec.cum_inner_iterations},{rec.wall_time_s:.6f},"
                        f"{rec.certificate!r},{rec.certificate_mode},"
                        f"{int(rec.vacuous_fallback)},{int(rec.inner_converged)}\n"
                    )


# RunResult counts the summary CSV sums over each solver's runs
UPDATE_COUNTS = ("unconverged_inner", "null_updates", "vacuous_fallbacks")


def _write_summary_csv(path, cfg, summaries):
    with open(path, "w") as fh:
        for line in cfg.echo_lines():
            fh.write(f"# {line}\n")
        stops = [f"stop_{reason}" for reason in STOP_REASONS]
        fh.write(
            ",".join(["solver", "runs", "mean_block_updates", "mean_inner_iterations",
                      "mean_time_s", *stops, *UPDATE_COUNTS, "failures"]) + "\n"
        )
        for method, s in summaries.items():
            reasons = [result.stop_reason for _, result in s.runs]
            counts = [reasons.count(reason) for reason in STOP_REASONS]
            counts += [sum(getattr(result, c) for _, result in s.runs) for c in UPDATE_COUNTS]
            fh.write(
                f"{method},{len(s.runs)},{s.mean('block_updates')!r},"
                f"{s.mean('inner_iterations')!r},{s.mean('wall_time_s'):.6f},"
                f"{','.join(map(str, counts))},{';'.join(s.failures)}\n"
            )
