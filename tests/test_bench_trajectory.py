"""The performance trajectory: each BENCH_<workload>.json at the repository
root holds paired runs of one benchmark workload, parent against change."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_files():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=[p.stem for p in TRAJECTORY])
def test_trajectory_file_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_")
    assert record["workload"] == workload
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
    for name in END_TO_END:
        metric = record["metrics"][name]
        for side in ("parent", "change"):
            assert isinstance(metric[side]["median"], (int, float)), (name, side)
    claim = record["claim"]
    if claim and claim["met"]:
        better = END_TO_END[claim["metric"]]["better"]
        assert claim["better"] == better
        parent = record["metrics"][claim["metric"]]["parent"]["median"]
        change = record["metrics"][claim["metric"]]["change"]["median"]
        assert change < parent if better == "lower" else change > parent
