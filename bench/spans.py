"""In-memory span tracer for the traced benchmark run.

The tracer wraps icdkit's public functions and methods from outside the
package: each call records one span (name, start, end, parent) and, for
the inner solvers, the iteration count of the returned ``SolveStats``.
A function imported by name into another icdkit module (``core`` imports
``solve_cg``, ``synthetic`` imports ``quadratic_metric``) is replaced in
that module too, so calls made through either name are recorded.

Spans live in flat typed arrays (about 28 bytes each), because the
small-block workload records over a million of them per run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, records SolveStats iterations)
TARGETS = [
    ("core", "icd_run", "core.icd_run", False),
    ("core", "compute_update", "core.compute_update", False),
    ("core", "sample_block", "core.sample_block", False),
    ("core", "delta_budget", "core.delta_budget", False),
    ("objective", "CompositeObjective.block_gradient", "objective.block_gradient", False),
    ("objective", "CompositeObjective.model_value", "objective.model_value", False),
    ("objective", "ResidualState.apply_update", "objective.apply_update", False),
    ("objective", "ResidualState.F_value", "objective.F_value", False),
    ("objective", "QuadraticSmooth.__init__", "objective.QuadraticSmooth", False),
    ("objective", "quadratic_metric", "objective.quadratic_metric", False),
    ("blocks", "BlockMetric.apply", "blocks.metric_apply", False),
    ("inner", "LinearSubproblem.apply", "inner.operator_apply", False),
    ("inner", "solve_exact_cholesky", "inner.solve_exact_cholesky", True),
    ("inner", "solve_cg", "inner.solve_cg", True),
    ("inner", "solve_pcg", "inner.solve_pcg", True),
    ("inner", "solve_l1_subproblem", "inner.solve_l1_subproblem", True),
    ("inner", "solve_group_subproblem", "inner.solve_group_subproblem", True),
    ("inner", "soft_threshold", "inner.soft_threshold", False),
    ("inner", "group_soft_threshold", "inner.group_soft_threshold", False),
    ("inner", "estimate_operator_norm_sq", "inner.estimate_operator_norm_sq", False),
    ("inner", "incomplete_cholesky", "inner.incomplete_cholesky", False),
    ("block_angular", "generate", "block_angular.generate", False),
    ("block_angular", "BlockAngularMatrix.assemble", "block_angular.assemble", False),
    ("block_angular", "build_preconditioner", "block_angular.build_preconditioner", False),
    ("synthetic", "lasso_instance", "synthetic.lasso_instance", False),
    ("bounds", "mu_quadratic", "bounds.mu_quadratic", False),
    ("bounds", "iterations_case_ii", "bounds.iterations_case_ii", False),
]

# per-layer metric -> unit; the keys match BENCHMARK.json's per_layer list
PER_LAYER_UNITS = {
    "core.icd_run.self_ms": "ms",
    "core.compute_update.p50_us": "us",
    "core.compute_update.p90_us": "us",
    "core.compute_update.self_ms": "ms",
    "core.sample_block.ms": "ms",
    "core.delta_budget.ms": "ms",
    "objective.block_gradient.calls": "count",
    "objective.block_gradient.ms": "ms",
    "objective.model_value.calls": "count",
    "objective.model_value.ms": "ms",
    "objective.apply_update.ms": "ms",
    "objective.F_value.ms": "ms",
    "objective.quadratic_metric.ms": "ms",
    "blocks.metric_apply.calls": "count",
    "blocks.metric_apply.ms": "ms",
    "inner.solve_exact_cholesky.calls": "count",
    "inner.solve_exact_cholesky.ms": "ms",
    "inner.solve_cg.ms": "ms",
    "inner.solve_cg.iters": "count",
    "inner.solve_cg.self_us_per_iter": "us",
    "inner.solve_pcg.ms": "ms",
    "inner.solve_pcg.iters": "count",
    "inner.solve_pcg.self_us_per_iter": "us",
    "inner.operator_apply.calls": "count",
    "inner.operator_apply.ms": "ms",
    "inner.solve_l1_subproblem.ms": "ms",
    "inner.solve_l1_subproblem.iters": "count",
    "inner.solve_l1_subproblem.us_per_iter": "us",
    "inner.solve_group_subproblem.ms": "ms",
    "inner.solve_group_subproblem.iters": "count",
    "inner.soft_threshold.ms": "ms",
    "inner.group_soft_threshold.ms": "ms",
    "inner.estimate_operator_norm_sq.ms": "ms",
    "inner.incomplete_cholesky.ms": "ms",
    "block_angular.generate.ms": "ms",
    "block_angular.build_preconditioner.ms": "ms",
    "synthetic.lasso_instance.ms": "ms",
    "bounds.mu_quadratic.ms": "ms",
    "trace.solve_s": "s",
    "trace.setup_s": "s",
    "trace.span_self_s": "s",
}


class Tracer:
    """Records a span per call into the wrapped icdkit functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iters = array("i")
        self._stack: list[int] = []

    def reset(self):
        for buf in (self.name_id, self.parent, self.start, self.end, self.iters):
            del buf[:]

    def _wrap(self, fn, name: str, counts_iters: bool):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, iters = (
            self.name_id, self.parent, self.start, self.end, self.iters,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            iters.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counts_iters:
                iters[idx] = out[1].iterations
            return out

        return traced

    def install(self):
        """Wrap every target, in its own module and wherever it was imported."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("icdkit")]
        for mod_name, attr, name, counts_iters in TARGETS:
            mod = importlib.import_module(f"icdkit.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, counts_iters))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, name, counts_iters)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "iters": np.frombuffer(self.iters, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def per_layer(self, rounds: int, setup_s: float, solve_s: float) -> dict:
        """Per-layer metrics per round; setup_s and solve_s are run totals.

        A span's self time is its duration minus its child spans'. The
        self times of all spans sum to the duration of the root spans.
        """
        a = self.arrays()
        k = len(self.names)
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        total = np.bincount(nid, weights=dur, minlength=k)
        self_t = np.bincount(nid, weights=own, minlength=k)
        calls = np.bincount(nid, minlength=k)
        iters = np.bincount(nid, weights=a["iters"], minlength=k)
        idx = {n: i for i, n in enumerate(self.names)}

        def per_iter_us(name, t):
            n_it = iters[idx[name]]
            return float(t[idx[name]] / n_it * 1e6) if n_it else 0.0

        cu = dur[nid == idx["core.compute_update"]] * 1e6
        p50, p90 = np.percentile(cu, [50, 90]) if cu.size else (0.0, 0.0)
        ratios = {
            "core.compute_update.p50_us": p50,
            "core.compute_update.p90_us": p90,
            "inner.solve_cg.self_us_per_iter": per_iter_us("inner.solve_cg", self_t),
            "inner.solve_pcg.self_us_per_iter": per_iter_us("inner.solve_pcg", self_t),
            "inner.solve_l1_subproblem.us_per_iter":
                per_iter_us("inner.solve_l1_subproblem", total),
        }
        run_totals = {
            "core.icd_run.self_ms": self_t[idx["core.icd_run"]] * 1e3,
            "core.compute_update.self_ms": self_t[idx["core.compute_update"]] * 1e3,
            "trace.solve_s": solve_s,
            "trace.setup_s": setup_s,
            "trace.span_self_s": own.sum(),
        }
        out = {}
        for metric in PER_LAYER_UNITS:
            if metric in ratios:
                out[metric] = float(ratios[metric])
                continue
            if metric in run_totals:
                value = run_totals[metric]
            else:
                name, kind = metric.rsplit(".", 1)
                i = idx[name]
                value = {"ms": total[i] * 1e3, "calls": calls[i], "iters": iters[i]}[kind]
            out[metric] = float(value) / rounds
        return out
