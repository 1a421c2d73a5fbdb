"""icdkit benchmark: one workload per invocation, in a process of its own.

    python3 bench/run.py --workload smallblock --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-check

Run from the root of a checkout; icdkit is imported from ``src/``. A run
discards a warm-up round on a tiny instance, then repeats whole rounds
of the workload until ``--seconds`` have passed (at least one round). It
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, medians over
the rounds; ``--trace 1`` wraps icdkit's public functions and gives the
per-layer metrics, per round. The full result, with the machine and the
seeds, goes to ``bench/results/``; a traced run also writes its spans.
"""

import os

# one BLAS thread: the thread count alone moves the exact path 2.5x on 2 CPUs
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "block_updates": "count",
    "inner_iters": "count",
    "peak_rss_mb": "MB",
}


def _import_icdkit():
    """Put the checkout's src/ first on the path; refuse any other icdkit."""
    src = ROOT / "src"
    if not (src / "icdkit" / "__init__.py").is_file():
        sys.exit(f"bench: no icdkit sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import icdkit

    if Path(icdkit.__file__).resolve().parent != (src / "icdkit").resolve():
        sys.exit(f"bench: imported icdkit from {icdkit.__file__}, not from {src}")


def _environment(seed_info: dict) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seeds": seed_info,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    run_round = workloads.WORKLOADS[workload]
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    run_round("tiny", seed, workloads.Tally())  # warm-up, discarded
    if tracer:
        tracer.reset()

    # whole rounds only, and none that would end past the deadline
    tallies = []
    start = time.perf_counter()
    while not tallies or (time.perf_counter() - start) * (1 + 1 / len(tallies)) <= seconds:
        gc.collect()
        tally = workloads.Tally()
        run_round("full", seed, tally)
        tallies.append(tally)

    result = {
        "correct": True,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
    }
    if tracer:
        values = tracer.per_layer(
            len(tallies), sum(t.setup_s for t in tallies), sum(t.solve_s for t in tallies)
        )
        units = spans.PER_LAYER_UNITS
        tracer.save(RESULTS_DIR / f"spans-{workload}-seed{seed}.npz")
    else:
        values = {
            "setup_s": statistics.median(t.setup_s for t in tallies),
            "solve_s": statistics.median(t.solve_s for t in tallies),
            "block_updates": statistics.median(t.block_updates for t in tallies),
            "inner_iters": statistics.median(t.inner_iters for t in tallies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    result["metrics"] = {m: {"value": values[m], "unit": units[m]} for m in units}
    result["rounds"] = [vars(t) for t in tallies]
    return result


def self_check() -> int:
    """Every workload's checks on tiny instances, untraced and traced."""
    import numpy as np

    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", spans.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            print(f"self-check: BENCHMARK.json {key} differs from the code", file=sys.stderr)
            return 1

    # the checks must reject a wrong answer: F(0) = 1, but F_final claims 0
    b = np.ones(2)
    wrong = types.SimpleNamespace(records=[], x=np.zeros(2), F_final=0.0)
    try:
        workloads.check_run(wrong, workloads.Evaluator(lambda x: x - b, b), wrong.x, "wrong")
    except workloads.CheckFailed:
        pass
    else:
        print("self-check: a wrong F_final passed the checks", file=sys.stderr)
        return 1

    for trace in (False, True):
        tracer = None
        if trace:
            tracer = spans.Tracer()
            tracer.install()
        for name, run_round in workloads.WORKLOADS.items():
            if tracer:
                tracer.reset()
            tally = workloads.Tally()
            t0 = time.perf_counter()
            run_round("tiny", 0, tally)
            line = f"self-check {name} trace={int(trace)}: ok, {tally.attempted} operations, " \
                   f"{tally.failed} failed, {time.perf_counter() - t0:.2f} s"
            if tracer:
                layer = tracer.per_layer(1, tally.setup_s, tally.solve_s)
                covered = layer["trace.span_self_s"] / (tally.setup_s + tally.solve_s)
                line += f", spans cover {covered:.1%} of set-up + solve"
            print(line)
    return 0


def main(argv=None) -> int:
    _import_icdkit()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload's checks on tiny instances")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    RESULTS_DIR.mkdir(exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(workloads.seeds_used(args.workload, args.seed)),
        **result,
    }
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
