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
from icdkit.core import STOP_REASONS


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
    with pytest.raises(ValueError, match=r"bad\.mtx: Line 1: Not a Matrix Market file"):
        mmio.read_matrix_market(p)


def test_read_out_of_range_index(tmp_path):
    p = _write(
        tmp_path / "oob.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
    )
    with pytest.raises(ValueError, match=r"oob\.mtx: Line 3: Row index out of bounds"):
        mmio.read_matrix_market(p)


_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_GENERAL + "2 2 1\n1 x 1.0\n", "Line 3: Invalid integer value"),
        (_GENERAL + "2 2 1\n1 1 1.0\n2 2 1.0\n", "Line 4: Too many lines"),
        (_GENERAL + "2 2 2\n1 1 1.0\n", "Truncated file"),
        (_GENERAL + "2 2 1\n1 1 1.0 5\n", "expected 3 entry tokens (row col value per entry), found 4"),
        (
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
            "unsupported matrix type: coordinate complex general",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
            "unsupported matrix type: coordinate pattern general",
        ),
        (
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
            "unsupported matrix type: array real general",
        ),
    ],
    ids=[
        "malformed-entry", "too-many-entries", "truncated", "extra-token",
        "complex", "pattern", "array",
    ],
)
def test_read_rejects_a_file_it_cannot_read(tmp_path, text, message):
    # the bad banner and out-of-range cases are the two tests above
    p = _write(tmp_path / "m.mtx", text)
    with pytest.raises(ValueError, match=re.escape(f"m.mtx: {message}")):
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


def test_config_bool_reads_six_words_and_refuses_any_other():
    words = {"true": True, "Yes": True, "1": True, "false": False, "NO": False, "0": False}
    for word, flag in words.items():
        assert harness.parse_config(f"k = {word}").get_bool("k") is flag
    assert harness.parse_config("").get_bool("k", True) is True
    for word in ("ture", "on", "2", ""):
        refused = f"k: expected true, false, yes, no, 1 or 0, got '{word}'"
        with pytest.raises(ValueError, match=refused):
            harness.parse_config(f"k = {word}").get_bool("k")


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


def test_run_experiment_all_solvers(tmp_path):
    cfg = harness.parse_config(SMALL_CONFIG + f"output.dir = {tmp_path}\n")
    summaries = harness.run_experiment(cfg)
    for method in ("exact", "cg", "pcg"):
        s = summaries[method]
        assert not s.failures
        assert [rep for rep, _ in s.runs] == [0, 1]
        assert all(res.F_final < 0.1 for _, res in s.runs)
        # summary means equal recomputation from the raw records
        totals = [len(res.records) for _, res in s.runs]
        assert s.mean("block_updates") == np.mean(totals)
        inner = [sum(r.inner_iterations for r in res.records) for _, res in s.runs]
        assert s.mean("inner_iterations") == np.mean(inner)
    assert (tmp_path / "experiment_records.csv").exists()
    assert (tmp_path / "experiment_summary.csv").exists()


def test_output_files_echo_config(tmp_path):
    cfg = harness.parse_config(SMALL_CONFIG + f"output.dir = {tmp_path}\n")
    harness.run_experiment(cfg)
    text = (tmp_path / "experiment_records.csv").read_text()
    header = [l[2:] for l in text.splitlines() if l.startswith("# ")]
    assert harness.parse_config("\n".join(header)).raw == cfg.raw
    cols = next(l for l in text.splitlines() if not l.startswith("#"))
    assert cols == "solver," + ",".join(harness.RECORD_COLUMNS)


def test_records_csv_carries_certificate_and_flags(tmp_path):
    summaries = harness.run_experiment(
        harness.parse_config(SMALL_CONFIG + f"output.dir = {tmp_path}\n")
    )
    text = (tmp_path / "experiment_records.csv").read_text()
    rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
    recs = [r for s in summaries.values() for _, res in s.runs for r in res.records]
    assert len(rows) == len(recs) > 0
    for row, rec in zip(rows, recs):
        assert float(row["certificate"]) == rec.certificate
        assert row["certificate_mode"] == rec.certificate_mode
        assert bool(int(row["vacuous_fallback"])) == rec.vacuous_fallback
        assert bool(int(row["inner_converged"])) == rec.inner_converged


def test_summary_csv_counts_stop_reasons(tmp_path):
    # one Krylov iteration per update leaves the cg and pcg solves short of
    # beta; the exact solve always converges
    cfg = harness.parse_config(
        SMALL_CONFIG + f"stop.max_block_updates = 3\ninner.max_iters = 1\noutput.dir = {tmp_path}\n"
    )
    summaries = harness.run_experiment(cfg)
    text = (tmp_path / "experiment_summary.csv").read_text()
    rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
    assert [row["solver"] for row in rows] == list(summaries)
    for row in rows:
        runs = [res for _, res in summaries[row["solver"]].runs]
        assert [res.stop_reason for res in runs] == ["budget", "budget"]
        assert {k: int(row[f"stop_{k}"]) for k in STOP_REASONS} == {
            "eps": 0, "budget": 2, "stagnated": 0, "order_exhausted": 0,
        }
        unconverged = sum(not r.inner_converged for res in runs for r in res.records)
        assert int(row["unconverged_inner"]) == unconverged
        assert sum(res.unconverged_inner for res in runs) == unconverged
        assert (unconverged > 0) == (row["solver"] != "exact")


def test_run_experiment_deterministic_replay(tmp_path):
    order_path = tmp_path / "order.txt"
    rng = np.random.default_rng(0)
    order_path.write_text(" ".join(str(int(v)) for v in rng.integers(0, 3, size=4000)))
    cfg = harness.parse_config(
        SMALL_CONFIG + f"sampling.fixed_order_path = {order_path}\nrun.repetitions = 1\n"
        "inner.solver = cg\n"
    )
    s1, s2 = (
        harness.run_experiment(cfg, write_files=False),
        harness.run_experiment(cfg, write_files=False),
    )
    rec1 = [(r.k, r.block, r.F) for _, res in s1["cg"].runs for r in res.records]
    rec2 = [(r.k, r.block, r.F) for _, res in s2["cg"].runs for r in res.records]
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
    summaries = harness.run_experiment(cfg, write_files=False)
    assert len(summaries["pcg"].failures) == 1
    assert summaries["pcg"].failures[0].startswith("setup: ")
    assert not summaries["cg"].failures and len(summaries["cg"].runs) == 1

    # the l1 path takes only prox: exact fails once, at set-up, however
    # many repetitions are asked for, while prox completes every run
    cfg = harness.parse_config(
        L1_CONFIG.replace("reg.lam = 0.1", "reg.lam = 0.1\ninner.solver = exact,prox")
        + "run.repetitions = 2\n"
    )
    summaries = harness.run_experiment(cfg, write_files=False)
    assert summaries["exact"].failures == [
        "setup: method 'exact' does not fit the l1 regularizer: "
        "l1 and group lasso take 'prox', zero takes exact, cg or pcg"
    ]
    assert not summaries["prox"].failures
    assert [res.block_updates for _, res in summaries["prox"].runs] == [30, 30]


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
    summaries = harness.run_experiment(cfg, write_files=False)
    assert opened == [str(order_path)]
    for method in ("exact", "cg"):
        assert not summaries[method].failures and len(summaries[method].runs) == 3


def test_run_experiment_records_an_unknown_solver_as_setup_failure():
    # the default beta = 0 routes every update to the exact solve, so the
    # solver name is checked when its config is built, not per update
    cfg = harness.parse_config(
        SMALL_CONFIG.replace("policy.beta = 0.1\n", "")
        + "inner.solver = cg,foo\nrun.repetitions = 1\n"
    )
    summaries = harness.run_experiment(cfg, write_files=False)
    assert summaries["foo"].failures == ["setup: unknown inner solver 'foo'"]
    assert summaries["foo"].runs == []
    assert not summaries["cg"].failures and len(summaries["cg"].runs) == 1


@pytest.mark.parametrize("drop_tol", ["-0.1", "nan"])
def test_run_experiment_records_a_bad_drop_tol_as_setup_failure(drop_tol):
    cfg = harness.parse_config(
        SMALL_CONFIG + f"inner.solver = cg,pcg\ninner.drop_tol = {drop_tol}\nrun.repetitions = 1\n"
    )
    summaries = harness.run_experiment(cfg, write_files=False)
    assert summaries["pcg"].failures == [
        f"setup: drop_tol must be a nonnegative number, got {float(drop_tol)!r}"
    ]
    assert summaries["pcg"].runs == []
    assert not summaries["cg"].failures and len(summaries["cg"].runs) == 1


def test_run_experiment_defaults_to_prox_for_l1():
    cfg = harness.parse_config(L1_CONFIG)
    summaries = harness.run_experiment(cfg, write_files=False)
    assert list(summaries) == ["prox"]
    assert not summaries["prox"].failures
    assert [res.block_updates for _, res in summaries["prox"].runs] == [30]


# ------------------------------------------------------------------ CLI


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "icdkit.cli", *args], capture_output=True, text=True
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
    cfg.write_text(SMALL_CONFIG.replace("exact,cg,pcg", "cg") + f"output.dir = {tmp_path}\n")
    r = _cli("run", str(cfg))
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
    needs = bounds.THEOREMS[theorem][0]
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
        (["run", "CFG"], "run.repetitions = two\n", "run.repetitions: expected int, got 'two'"),
        (["run", "CFG"], "sampling.p = 0.5,0.5\n", "sampling.p has 2 probabilities"),
        (["run", "CFG"], "sampling.p = 0.5,0.5,0.5\n", "sampling.p: probabilities must sum to 1"),
        (["run", "CFG"], "policy.alpha = 0.1\n", "uniform_beta rule carries no multiplicative"),
        (
            ["run", "CFG"],
            "policy.rule = per_block_list\npolicy.per_block = 0.1,0.1\n",
            "per-block delta list has 2 entries for 3 blocks",
        ),
        (
            ["run", "CFG"],
            "policy.rule = per_block_list\npolicy.per_block = 0.1,0.2,0.1\n",
            "per-block delta_bar 0.133",
        ),
        (
            ["run", "CFG"],
            "policy.rule = per_block_list\npolicy.per_block = 0.1,0.1,0.1\npolicy.alpha = 0.1\n",
            "per_block_list rule carries no multiplicative term",
        ),
        (
            ["run", "CFG"],
            "reg.kind = l1\nreg.lam = 0.1\ninner.solver = prox\n"
            "policy.rule = multiplicative_plus_additive\npolicy.alpha = 0.5\n",
            "multiplicative error requires a known F*",
        ),
        (
            ["run", "CFG"],
            "reg.kind = l1\nreg.lam = 0.1\ninner.solver = prox\n",
            "stop.eps needs a known F*",
        ),
        (
            ["run", "CFG"],
            "stop.epss = 1e-3\ninner.solvr = exact\n",
            "unknown config key inner.solvr, stop.epss",
        ),
        (
            ["run", "CFG"],
            "problem.source = matrix_market\nproblem.path = TMP/none.mtx\n"
            "problem.block_sizes = 4\nproblem.transpose = ture\n",
            "problem.transpose: expected true, false, yes, no, 1 or 0, got 'ture'",
        ),
        (["run", "CFG"], "stop.eps = 0\n", "stop.eps must be a positive finite number, got 0.0"),
        (["run", "CFG"], "stop.eps = -1\n", "stop.eps must be a positive finite number, got -1.0"),
        (["run", "CFG"], "stop.eps = nan\n", "stop.eps must be a positive finite number, got nan"),
        (["run", "CFG"], "run.repetitions = 0\n", "run.repetitions must be at least 1, got 0"),
        (
            ["run", "CFG"],
            "stop.max_block_updates = -1\n",
            "stop.max_block_updates must be at least 0, got -1",
        ),
        (["run", "CFG"], "inner.max_iters = 0\n", "inner.max_iters must be at least 1, got 0"),
        (
            ["run", "CFG"],
            "sampling.fixed_order_path = TMP/no_order.txt\n",
            "sampling.fixed_order_path: [Errno 2] No such file or directory",
        ),
        (
            ["run", "CFG"],
            "sampling.fixed_order_path = TMP/order_x.txt\n",
            "sampling.fixed_order_path: invalid literal for int() with base 10: 'x'",
        ),
        (
            ["run", "CFG"],
            "sampling.fixed_order_path = TMP/order_3.txt\n",
            "sampling.fixed_order_path: fixed block order: index 3 outside [0, 3)",
        ),
        (
            ["run", "CFG"],
            "sampling.fixed_order_path = TMP/order_minus_1.txt\n",
            "sampling.fixed_order_path: fixed block order: index -1 outside [0, 3)",
        ),
        (["generate", "--rows-per-block", "10", "--cols-per-block", "20"], None, "M_i >= N_i"),
        (
            ["generate", "--rows-per-block", "20", "--cols-per-block", "20", "--nnz-per-col", "1"],
            None,
            "nnz_per_col",
        ),
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
        "repetitions-not-int", "probability-count", "probability-sum", "uniform-beta-alpha",
        "per-block-length", "per-block-over-beta", "per-block-alpha", "multiplicative-no-Fstar",
        "eps-no-Fstar", "unknown-key", "bool-not-a-word", "eps-zero", "eps-negative", "eps-nan",
        "repetitions-zero", "budget-negative", "inner-cap-zero",
        "order-missing", "order-not-int", "order-index-3", "order-index-minus-1",
        "generate-shape", "generate-rank", "block-9", "block-minus-1", "PB-on-wide",
    ],
)
def test_cli_input_error_is_one_usage_error_line(tmp_path, capsys, argv, config, named):
    # "CFG" stands for a config file, which exists only when config is given;
    # "TMP" in config stands for the directory that holds these order files
    (tmp_path / "order_x.txt").write_text("0 1 x 2")
    (tmp_path / "order_3.txt").write_text("0 1 3 0")
    (tmp_path / "order_minus_1.txt").write_text("0 1 2 -1 0")
    cfg = tmp_path / "exp.cfg"
    if config is not None:
        config = config.replace("TMP", str(tmp_path))
        cfg.write_text(SMALL_CONFIG + f"output.dir = {tmp_path}\n" + config)
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
    # run_experiment refuses every key outside CONFIG_KEYS, so the table, the
    # keys the harness reads and CONFIG_KEYS must agree
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "src", "icdkit", "harness.py")) as fh:
        read = set(re.findall(r'cfg\.get\w*\(\s*"([^"]+)"', fh.read()))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    table = readme.split("### Config keys for `icdkit run`", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    listed = {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)}
    assert listed == read == harness.CONFIG_KEYS
