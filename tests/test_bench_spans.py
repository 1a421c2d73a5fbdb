"""A traced benchmark round records the layers its per-layer metrics name.

The tracer wraps icdkit functions by name, so a layer whose work moves
to a function the tracer does not wrap would report zero in
``BENCHMARK.json`` without failing the self-check. The round runs in a
process of its own because the tracer's wrappers stay installed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

TRACED_ROUND = """
import json, sys
sys.path[:0] = ["src", "bench"]
import spans, workloads
tracer = spans.Tracer()
tracer.install()
tally = workloads.Tally()
workloads.WORKLOADS[sys.argv[1]]("tiny", 0, tally)
print(json.dumps(tracer.per_layer(1, tally.setup_s, tally.solve_s)))
"""


# the layers each workload's tiny round must record, by per-layer metric
RECORDED = {
    "lasso": ("inner.estimate_operator_norm_sq.ms", "blocks.metric_apply.calls"),
    "smallblock": ("blocks.metric_apply.calls",),
    "blockangular": ("blocks.metric_apply.calls",),
}


@pytest.mark.parametrize("workload", list(RECORDED))
def test_traced_tiny_round_records_its_layers(workload):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    layer = json.loads(proc.stdout.splitlines()[-1])
    for metric in RECORDED[workload]:
        assert metric in PER_LAYER
        assert layer[metric] > 0, metric
