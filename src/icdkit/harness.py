"""Configuration-driven experiment runner.

Configs are flat ``section.key = value`` text (diff-friendly, no schema
dependency) that ``parse_config`` parses; the caller reads the file.
Every output file starts with the echoed config so a run can be
reproduced from its own artifacts. A bad problem, regularizer or policy
key raises ValueError; a solver's setup or run error is recorded as its
failure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from icdkit import block_angular, bounds, mmio
from icdkit.blocks import BlockPartition
from icdkit.core import (
    DeltaRule,
    InexactnessPolicy,
    RunResult,
    SamplingLaw,
    SolverConfig,
    icd_run,
)
from icdkit.inner import incomplete_cholesky
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
)

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "parse_config",
    "build_problem",
    "run_experiment",
    "bounds_report",
]

OUTPUT_DIR_ENV = "ICDKIT_OUTPUT_DIR"

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


@dataclass
class ExperimentConfig:
    """Flat experiment description; raw holds the original key-value pairs."""

    raw: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def get_float(self, key, default=None):
        v = self.raw.get(key)
        return default if v is None else float(v)

    def get_int(self, key, default=None):
        v = self.raw.get(key)
        return default if v is None else int(v)

    def get_bool(self, key, default=False):
        v = self.raw.get(key)
        if v is None:
            return default
        return str(v).lower() in ("1", "true", "yes")

    def get_list(self, key, cast=float):
        v = self.raw.get(key)
        if v is None:
            return None
        return [cast(part) for part in str(v).split(",") if part.strip()]

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


def _read_fixed_order(cfg: ExperimentConfig) -> tuple[int, ...] | None:
    order_path = cfg.get("sampling.fixed_order_path")
    if not order_path:
        return None
    with open(order_path) as fh:
        return tuple(int(tok) for tok in fh.read().split())


def _build_law(cfg: ExperimentConfig, n: int, seed: int, fixed) -> SamplingLaw:
    p = cfg.get_list("sampling.p")
    if p is None:
        return SamplingLaw.uniform(n, seed, fixed)
    return SamplingLaw(tuple(p), seed, fixed)


def _build_solver(cfg: ExperimentConfig, method: str, mat) -> SolverConfig:
    factors = None
    if method == "pcg":
        if mat is None:
            raise ValueError("pcg needs block-angular structure for preconditioners")
        drop_tol = cfg.get_float("inner.drop_tol", 0.1)
        rho_shift = cfg.get_float("inner.rho_shift", 0.5)
        factors = []
        for i in range(mat.n):
            C = mat.C_blocks[i]
            if C.shape[0] >= C.shape[1]:
                P = block_angular.build_preconditioner(mat, i)
            else:
                P = block_angular.build_perturbed(mat, i, rho_shift)
            factors.append(incomplete_cholesky(P, drop_tol))
    return SolverConfig(
        method=method,
        max_inner_iters=cfg.get_int("inner.max_iters", 10_000),
        precond_factors=factors,
    )


@dataclass
class RunSummary:
    """Totals per run and per-solver means (the table-style aggregate)."""

    solver: str
    block_updates: list[int] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    final_F: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def add(self, result: RunResult):
        self.block_updates.append(result.block_updates)
        self.inner_iterations.append(result.inner_iterations)
        self.wall_times.append(result.wall_time_s)
        self.final_F.append(result.F_final)

    @property
    def mean_block_updates(self) -> float:
        return float(np.mean(self.block_updates)) if self.block_updates else float("nan")

    @property
    def mean_inner_iterations(self) -> float:
        return float(np.mean(self.inner_iterations)) if self.inner_iterations else float("nan")

    @property
    def mean_wall_time(self) -> float:
        return float(np.mean(self.wall_times)) if self.wall_times else float("nan")


def output_dir(default: str) -> str:
    """$ICDKIT_OUTPUT_DIR if set, else default; created if missing."""
    out = os.environ.get(OUTPUT_DIR_ENV) or default
    os.makedirs(out, exist_ok=True)
    return out


def run_experiment(cfg: ExperimentConfig, write_files: bool = True):
    """Run all configured solvers for the configured repetitions.

    Returns (summaries, records_by_solver); optionally writes the raw
    record CSV and the summary CSV, both headed by the echoed config.
    """
    objective, mat = build_problem(cfg)
    policy = _build_policy(cfg)
    default_solver = "cg" if objective.reg.kind.value == "zero" else "prox"
    methods = [m.strip() for m in cfg.get("inner.solver", default_solver).split(",")]
    reps = cfg.get_int("run.repetitions", 1)
    eps = cfg.get_float("stop.eps")
    max_updates = cfg.get_int("stop.max_block_updates", 100_000)
    base_seed = cfg.get_int("sampling.seed", 0)
    x0 = np.zeros(objective.partition.N)
    try:
        fixed, order_error = _read_fixed_order(cfg), None
    except (ValueError, OSError) as e:
        fixed, order_error = None, e

    summaries: dict[str, RunSummary] = {}
    records: dict[str, list[tuple[int, RunResult]]] = {}
    for method in methods:
        summary = RunSummary(solver=method)
        summaries[method] = summary
        records[method] = []
        try:
            if order_error is not None:
                raise order_error
            solver = _build_solver(cfg, method, mat)
        except (ValueError, OSError, RuntimeError) as e:
            summary.failures.append(f"setup: {e}")
            continue
        for rep in range(reps):
            try:
                law = _build_law(cfg, objective.partition.n, base_seed + rep, fixed)
                result = icd_run(
                    objective, x0, policy, law, solver,
                    eps=eps, max_block_updates=max_updates,
                )
            except (ValueError, RuntimeError) as e:
                summary.failures.append(f"run {rep}: {e}")
                continue
            summary.add(result)
            records[method].append((rep, result))

    if write_files:
        out = output_dir(cfg.get("output.dir", "."))
        prefix = cfg.get("output.prefix", "experiment")
        _write_records_csv(os.path.join(out, f"{prefix}_records.csv"), cfg, records)
        _write_summary_csv(os.path.join(out, f"{prefix}_summary.csv"), cfg, summaries)
    return summaries, records


def _write_records_csv(path, cfg, records):
    with open(path, "w") as fh:
        for line in cfg.echo_lines():
            fh.write(f"# {line}\n")
        fh.write(",".join(["solver"] + RECORD_COLUMNS) + "\n")
        for method, runs in records.items():
            for rep, result in runs:
                for rec in result.records:
                    fstar = "" if rec.F_minus_Fstar is None else repr(rec.F_minus_Fstar)
                    fh.write(
                        f"{method},{rep},{rec.k},{rec.block},{rec.delta!r},"
                        f"{rec.inner_iterations},{rec.F!r},{fstar},"
                        f"{rec.cum_inner_iterations},{rec.wall_time_s:.6f},"
                        f"{rec.certificate!r},{rec.certificate_mode},"
                        f"{int(rec.vacuous_fallback)},{int(rec.inner_converged)}\n"
                    )


def _write_summary_csv(path, cfg, summaries):
    with open(path, "w") as fh:
        for line in cfg.echo_lines():
            fh.write(f"# {line}\n")
        fh.write("solver,runs,mean_block_updates,mean_inner_iterations,mean_time_s,failures\n")
        for method, s in summaries.items():
            fh.write(
                f"{method},{len(s.block_updates)},{s.mean_block_updates!r},"
                f"{s.mean_inner_iterations!r},{s.mean_wall_time:.6f},"
                f"{';'.join(s.failures)}\n"
            )


def bounds_report(
    theorem: str,
    eps: float,
    rho: float,
    alpha: float = 0.0,
    beta: float = 0.0,
    xi0: float = 1.0,
    n: int | None = None,
    R2: float | None = None,
    mu_f: float | None = None,
    mu_psi: float = 0.0,
) -> dict:
    """Side-by-side exact/inexact iteration counts for one theorem row.

    Raises ValueError for an unknown theorem or one whose inputs are missing.
    """
    if theorem not in bounds.THEOREMS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    case, needs, constant_of = bounds.THEOREMS[theorem]
    inputs = dict(n=n, R2=R2, mu_f=mu_f, mu_psi=mu_psi, xi0=xi0, eps=eps)
    missing = [key for key in needs if inputs[key] is None]
    if missing:
        raise ValueError(f"theorem {theorem} needs {', '.join(missing)}")
    constant, alpha_max = constant_of(**inputs)
    if alpha >= alpha_max:
        return {
            "theorem": theorem,
            "feasible": False,
            "violated": [f"0 <= alpha < mu/n = {alpha_max!r}"],
            "constant": constant,
        }
    exact_of, iterations_of = bounds.CASES[case]
    exact = exact_of(constant, eps, rho, xi0)
    res = iterations_of(bounds.BoundInputs(constant, alpha, beta, eps, rho, xi0))
    return {
        "theorem": theorem,
        "constant": constant,
        "K_exact": max(0, int(np.ceil(exact))),
        "K_inexact": res.K,
        "feasible": res.feasible,
        "violated": res.violated,
        "derived": res.derived,
    }
