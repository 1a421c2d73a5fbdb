"""Matrix Market I/O, config parsing, experiment runner, and the CLI."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from icdkit import block_angular, bounds, cli, harness, mmio


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


L1_CONFIG = """
problem.source = generate
generate.n = 3
generate.M_i = 40
generate.N_i = 12
generate.ell = 1
generate.seed = 5
reg.kind = l1
reg.lam = 0.1
policy.beta = 1e-6
stop.max_block_updates = 30
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


def test_run_experiment_records_failures_not_fatal(tmp_path):
    # setup failure: pcg needs block-angular structure, which a Matrix
    # Market source lacks; cg on the same problem must still complete
    A = sp.csc_matrix(np.random.default_rng(0).standard_normal((20, 6)))
    mmio.write_matrix_market(str(tmp_path / "A.mtx"), A)
    cfg = harness.parse_config(
        f"""
problem.source = matrix_market
problem.path = {tmp_path / "A.mtx"}
problem.block_sizes = 3,3
policy.beta = 1e-8
inner.solver = pcg,cg
stop.eps = 1e-6
"""
    )
    summaries, records = harness.run_experiment(cfg, write_files=False)
    assert len(summaries["pcg"].failures) == 1
    assert summaries["pcg"].failures[0].startswith("setup: ")
    assert not summaries["cg"].failures and len(records["cg"]) == 1

    # run failure: the l1 path takes only prox, so exact fails in its run
    # while prox completes
    cfg = harness.parse_config(
        L1_CONFIG.replace("reg.lam = 0.1", "reg.lam = 0.1\ninner.solver = exact,prox")
    )
    summaries, records = harness.run_experiment(cfg, write_files=False)
    assert len(summaries["exact"].failures) == 1
    assert summaries["exact"].failures[0].startswith("run 0: ")
    assert not summaries["prox"].failures and summaries["prox"].block_updates == [30]


@pytest.mark.parametrize("order, bad", [("0 1 3 0", 3), ("0 1 2 -1 0", -1)])
def test_run_experiment_records_a_fixed_order_outside_the_blocks(tmp_path, order, bad):
    (tmp_path / "order.txt").write_text(order)
    cfg = harness.parse_config(
        SMALL_CONFIG + f"sampling.fixed_order_path = {tmp_path / 'order.txt'}\n"
        "inner.solver = exact,cg\nrun.repetitions = 1\n"
    )
    summaries, records = harness.run_experiment(cfg, write_files=False)
    for method in ("exact", "cg"):
        assert records[method] == []
        assert summaries[method].failures == [
            f"run 0: fixed block order: index {bad} outside [0, 3)"
        ]


@pytest.mark.parametrize(
    "content, named", [(None, "no_order.txt"), ("0 1 x 2", "'x'")], ids=["missing", "not-int"]
)
def test_run_experiment_records_an_unreadable_order_file_as_setup_failure(
    tmp_path, content, named
):
    order_path = tmp_path / "no_order.txt"
    if content is not None:
        order_path.write_text(content)
    cfg = harness.parse_config(
        SMALL_CONFIG + f"sampling.fixed_order_path = {order_path}\ninner.solver = exact,cg\n"
    )
    summaries, records = harness.run_experiment(cfg, write_files=False)
    for method in ("exact", "cg"):
        assert records[method] == []
        [failure] = summaries[method].failures
        assert failure.startswith("setup: ") and named in failure


def test_run_experiment_reads_the_order_file_once(tmp_path, monkeypatch):
    order_path = tmp_path / "order.txt"
    order_path.write_text(" ".join(str(k % 3) for k in range(4000)))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(harness, "open", counting_open, raising=False)
    cfg = harness.parse_config(
        SMALL_CONFIG + f"sampling.fixed_order_path = {order_path}\n"
        "inner.solver = exact,cg\nrun.repetitions = 3\n"
    )
    summaries, records = harness.run_experiment(cfg, write_files=False)
    assert opened == [str(order_path)]
    for method in ("exact", "cg"):
        assert not summaries[method].failures and len(records[method]) == 3


def test_run_experiment_defaults_to_prox_for_l1():
    cfg = harness.parse_config(L1_CONFIG)
    summaries, _ = harness.run_experiment(cfg, write_files=False)
    assert list(summaries) == ["prox"]
    assert not summaries["prox"].failures
    assert summaries["prox"].block_updates == [30]


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
    mat, x_star, b_gen = block_angular.generate(
        block_angular.GeneratorSpec(n=2, M_i=20, N_i=6, ell=1, seed=4)
    )
    assert A.shape == (41, 12)
    assert (A != mat.assemble()).nnz == 0  # values round-trip bit-exactly
    assert np.array_equal(b, b_gen) and np.array_equal(x, x_star)


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


@pytest.mark.parametrize("theorem", sorted(bounds.THEOREMS))
def test_cli_bounds_names_missing_inputs(theorem, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bounds", "--theorem", theorem, "--eps", "0.5", "--rho", "0.5"])
    assert exit_info.value.code == 2
    _, needs, _ = bounds.THEOREMS[theorem]
    assert f"theorem {theorem} needs {', '.join(needs)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["run", "CFG"], None, "exp.cfg"),
        (["run", "CFG"], "reg.kind = foo\n", "reg.kind 'foo'"),
        (["run", "CFG"], "reg.kind = group_lasso\nreg.d = 1,1\n", "2 weights for 3 blocks"),
        (
            ["run", "CFG"],
            "policy.rule = per_block_list\npolicy.per_block = 1e-6,-1,1e-6\n",
            "per-block budgets must be nonnegative",
        ),
        (["generate", "--rows-per-block", "10", "--cols-per-block", "20"], None, "M_i >= N_i"),
        (["spectrum", "--block", "9"], None, "block 9 outside [0, 4)"),
        (["spectrum", "--block", "-1"], None, "block -1 outside [0, 4)"),
        (
            ["spectrum", "--which", "PB", "--shape", "wide",
             "--rows-per-block", "10", "--cols-per-block", "20"],
            None,
            "requires a tall block",
        ),
    ],
    ids=[
        "missing-config", "unknown-reg", "group-weights", "negative-budget",
        "generate-shape", "block-9", "block-minus-1", "PB-on-wide",
    ],
)
def test_cli_input_error_is_one_usage_error_line(
    tmp_path, monkeypatch, capsys, argv, config, named
):
    # "CFG" stands for a config file, which exists only when config is given
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = tmp_path / "exp.cfg"
    if config is not None:
        cfg.write_text(SMALL_CONFIG + config)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([str(cfg) if a == "CFG" else a for a in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    [line] = [l for l in err.splitlines() if l.startswith("icdkit: error:")]
    assert named in line and "Traceback" not in err


def test_cli_spectrum():
    r = _cli(
        "spectrum", "--which", "PB", "--n", "2", "--rows-per-block", "20",
        "--cols-per-block", "8", "--linking-rows", "2", "--seed", "3",
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["counts"]["equal_one"] + payload["counts"]["greater_one"] == 8


# ------------------------------------------------------------ README


def test_readme_config_table_lists_the_keys_harness_reads():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "src", "icdkit", "harness.py")) as fh:
        read = set(re.findall(r'cfg\.get\w*\(\s*"([^"]+)"', fh.read()))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    table = readme.split("### Config keys for `icdkit run`", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    listed = {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)}
    assert listed == read
