"""Matrix Market I/O, config parsing, experiment runner, and the CLI."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from icdkit import harness, mmio


# ------------------------------------------------------- Matrix Market


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_read_identity(tmp_path):
    p = _write(
        tmp_path / "id.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
    )
    A = mmio.read_matrix_market(p)
    assert np.array_equal(A.toarray(), np.eye(2))


def test_read_sums_duplicates(tmp_path):
    p = _write(
        tmp_path / "dup.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.5\n1 1 0.5\n",
    )
    A = mmio.read_matrix_market(p)
    assert A.toarray()[0, 0] == pytest.approx(1.0)


def test_read_symmetric_expansion(tmp_path):
    p = _write(
        tmp_path / "sym.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 3.0\n",
    )
    A = mmio.read_matrix_market(p).toarray()
    assert np.array_equal(A, [[2.0, 3.0], [3.0, 0.0]])
    assert A[0, 1] == A[1, 0] == 3.0


def test_read_transpose_flag(tmp_path):
    p = _write(
        tmp_path / "t.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 3 5.0\n",
    )
    A = mmio.read_matrix_market(p, transpose=True)
    assert A.shape == (3, 2)
    assert A.toarray()[2, 0] == 5.0


def test_read_bad_header_reports_line(tmp_path):
    p = _write(tmp_path / "bad.mtx", "%%NotMatrixMarket\n1 1 1\n1 1 1.0\n")
    with pytest.raises(mmio.MatrixMarketError) as e:
        mmio.read_matrix_market(p)
    assert e.value.line_no == 1


def test_read_out_of_range_index(tmp_path):
    p = _write(
        tmp_path / "oob.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
    )
    with pytest.raises(mmio.MatrixMarketError):
        mmio.read_matrix_market(p)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = sp.random(7, 5, density=0.4, random_state=1, format="csc")
    path = tmp_path / "rt.mtx"
    mmio.write_matrix_market(str(path), A)
    B = mmio.read_matrix_market(str(path))
    assert np.array_equal(A.toarray(), B.toarray())  # bit-exact via repr round-trip


def test_vector_round_trip(tmp_path):
    v = np.random.default_rng(2).standard_normal(9)
    path = tmp_path / "v.mtx"
    mmio.write_vector_market(str(path), v)
    assert np.array_equal(mmio.read_vector_market(str(path)), v)


# --------------------------------------------------------------- config


def test_parse_config_basic():
    cfg = harness.parse_config("a.b = 3\n# comment\nc = hello  # trailing\n")
    assert cfg.get_int("a.b") == 3
    assert cfg.get("c") == "hello"


def test_parse_config_rejects_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        harness.parse_config("a = 1\nnot a pair\n")


def test_config_echo_round_trip():
    cfg = harness.parse_config("b = 2\na = 1\n")
    echoed = harness.parse_config("\n".join(cfg.echo_lines()))
    assert echoed.raw == cfg.raw


# ------------------------------------------------------- run_experiment

SMALL_CONFIG = """
problem.source = generate
generate.n = 3
generate.M_i = 40
generate.N_i = 12
generate.ell = 1
generate.seed = 5
policy.beta = 0.1
inner.solver = exact,cg,pcg
stop.eps = 0.1
stop.max_block_updates = 5000
run.repetitions = 2
sampling.seed = 3
"""


def test_run_experiment_all_solvers(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = harness.parse_config(SMALL_CONFIG)
    summaries, records = harness.run_experiment(cfg)
    for method in ("exact", "cg", "pcg"):
        s = summaries[method]
        assert not s.failures
        assert len(s.block_updates) == 2
        assert all(F < 0.1 for F in s.final_F)
    # summary aggregates equal recomputation from raw records
    for method, runs in records.items():
        totals = [len(res.records) for _, res in runs]
        assert totals == summaries[method].block_updates
        inner = [sum(r.inner_iterations for r in res.records) for _, res in runs]
        assert inner == summaries[method].inner_iterations
    assert (tmp_path / "experiment_records.csv").exists()
    assert (tmp_path / "experiment_summary.csv").exists()


def test_output_files_echo_config(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = harness.parse_config(SMALL_CONFIG)
    harness.run_experiment(cfg)
    text = (tmp_path / "experiment_records.csv").read_text()
    header = [l[2:] for l in text.splitlines() if l.startswith("# ")]
    assert harness.parse_config("\n".join(header)).raw == cfg.raw
    cols = next(l for l in text.splitlines() if not l.startswith("#"))
    assert cols == "solver," + ",".join(harness.RECORD_COLUMNS)


def test_records_csv_carries_certificate_and_flags(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path))
    _, records = harness.run_experiment(harness.parse_config(SMALL_CONFIG))
    text = (tmp_path / "experiment_records.csv").read_text()
    rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
    recs = [r for runs in records.values() for _, res in runs for r in res.records]
    assert len(rows) == len(recs) > 0
    for row, rec in zip(rows, recs):
        assert float(row["certificate"]) == rec.certificate
        assert row["certificate_mode"] == rec.certificate_mode
        assert bool(int(row["vacuous_fallback"])) == rec.vacuous_fallback
        assert bool(int(row["inner_converged"])) == rec.inner_converged


def test_run_experiment_deterministic_replay(tmp_path):
    order_path = tmp_path / "order.txt"
    rng = np.random.default_rng(0)
    order_path.write_text(" ".join(str(int(v)) for v in rng.integers(0, 3, size=4000)))
    cfg = harness.parse_config(
        SMALL_CONFIG + f"sampling.fixed_order_path = {order_path}\nrun.repetitions = 1\n"
        "inner.solver = cg\n"
    )
    (s1, r1), (s2, r2) = (
        harness.run_experiment(cfg, write_files=False),
        harness.run_experiment(cfg, write_files=False),
    )
    rec1 = [(r.k, r.block, r.F) for _, res in r1["cg"] for r in res.records]
    rec2 = [(r.k, r.block, r.F) for _, res in r2["cg"] for r in res.records]
    assert rec1 == rec2


def test_run_experiment_records_failures_not_fatal():
    # a wide block makes the plain preconditioner ill-posed; the pcg run
    # must record a failure while other solvers still complete
    cfg = harness.parse_config(
        """
problem.source = generate
generate.n = 2
generate.M_i = 8
generate.N_i = 20
generate.shape = wide
generate.ell = 1
generate.seed = 2
policy.beta = 0.1
inner.solver = cg
stop.eps = 0.1
stop.max_block_updates = 4000
"""
    )
    summaries, _ = harness.run_experiment(cfg, write_files=False)
    assert not summaries["cg"].failures


def test_bounds_report_rows():
    row = harness.bounds_report(
        "composite_convex_i", eps=1.0, rho=float(np.exp(-1)), xi0=3.0, n=10, R2=4.0
    )
    assert row["K_inexact"] == 136
    assert abs(row["K_exact"] - row["K_inexact"]) <= 1
    row = harness.bounds_report(
        "composite_convex_ii", eps=0.3, rho=0.1, alpha=0.05, beta=0.001,
        xi0=1.0, n=1, R2=1.5,
    )
    assert row["constant"] == pytest.approx(10.0)
    assert row["K_inexact"] == 92
    row = harness.bounds_report(
        "strongly_convex", eps=0.1, rho=0.2, alpha=0.125, xi0=1.0, n=4, mu_f=0.5
    )
    assert row["feasible"] is False  # alpha = mu/n boundary is excluded


def test_emit_objective_trace(tmp_path):
    cfg = harness.parse_config(SMALL_CONFIG + "inner.solver = cg\nrun.repetitions = 1\n")
    _, records = harness.run_experiment(cfg, write_files=False)
    _, result = records["cg"][0]
    path = tmp_path / "trace.csv"
    harness.emit_objective_trace(str(path), cfg, result)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "k,F,cum_wall_time_s"
    assert len(lines) - 1 == len(result.records)


# ------------------------------------------------------------------ CLI


def _cli(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "icdkit.cli", *args],
        capture_output=True, text=True, env=e,
    )


def test_cli_generate_and_read_back(tmp_path):
    r = _cli(
        "generate", "--n", "2", "--rows-per-block", "20", "--cols-per-block", "6",
        "--linking-rows", "1", "--seed", "4", "--out-dir", str(tmp_path),
        "--prefix", "toy",
    )
    assert r.returncode == 0, r.stderr
    A = mmio.read_matrix_market(str(tmp_path / "toy_A.mtx"))
    b = mmio.read_vector_market(str(tmp_path / "toy_b.mtx"))
    x = mmio.read_vector_market(str(tmp_path / "toy_xstar.mtx"))
    assert A.shape == (41, 12)
    assert np.allclose(A @ x, b)


def test_cli_run(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace("exact,cg,pcg", "cg"))
    r = _cli("run", str(cfg), env={harness.OUTPUT_DIR_ENV: str(tmp_path)})
    assert r.returncode == 0, r.stderr
    assert "cg:" in r.stdout
    assert (tmp_path / "experiment_summary.csv").exists()


def test_cli_bounds():
    r = _cli(
        "bounds", "--theorem", "composite_convex_ii", "--eps", "0.3", "--rho", "0.1",
        "--alpha", "0.05", "--beta", "0.001", "--xi0", "1.0", "--n", "1",
        "--radius-squared", "1.5",
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["K_inexact"] == 92


def test_cli_spectrum():
    r = _cli(
        "spectrum", "--which", "PB", "--n", "2", "--rows-per-block", "20",
        "--cols-per-block", "8", "--linking-rows", "2", "--seed", "3",
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["counts"]["equal_one"] + payload["counts"]["greater_one"] == 8
