import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from semimono import cli
from semimono.cli import (
    CliError,
    format_matrix,
    format_vector,
    main,
    parse_matrix_text,
    parse_vector_text,
)
from semimono.ratcore import RatMatrix

import matrices
from semimono import classify, explore, lcp, ratcore, verify
from matrices import (
    CLASSIFY_FIXTURES,
    M3_ORDER2_E0,
    M4_ORDER2_NONZ,
    M5_ORDER2,
    NONCLOSURE_A,
    NONCLOSURE_B,
)


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(format_matrix(m))
    return str(path)


def write_vector(tmp_path, name, v):
    path = tmp_path / name
    path.write_text(format_vector(tuple(F(x) for x in v)))
    return str(path)


# ---------------------------------------------------------------------------
# exact file round-trips


def test_matrix_round_trip():
    text = format_matrix(M4_ORDER2_NONZ)
    assert parse_matrix_text(text, "mem") == M4_ORDER2_NONZ


def test_vector_round_trip():
    v = (F(1, 3), F(-2), F(7, 5))
    assert parse_vector_text(format_vector(v), "mem") == v


def test_parse_rejects_floats_with_position():
    # "1_0" would parse as 10 through Fraction's digit separators, and the
    # Arabic-Indic digits U+0660 and U+0662 as 0 and 2
    for token in ("0.5", "1_0", "\u0660", "1/\u0662"):
        with pytest.raises(CliError) as err:
            parse_matrix_text(f"2\n1 {token}\n0 1\n", "m.txt")
        assert "row 1" in str(err.value) and "column 2" in str(err.value)


def test_parse_rejects_bad_shape():
    with pytest.raises(CliError):
        parse_matrix_text("2\n1 2 3\n4 5 6\n", "m.txt")
    with pytest.raises(CliError):
        parse_matrix_text("x\n", "m.txt")


def test_first_line_rejects_digit_separator(tmp_path, capsys):
    # int() reads "0_2" as 2; the order and length lines follow the entries' rule
    a = tmp_path / "a.txt"
    a.write_text("0_2\n1 0\n0 1\n")
    assert main(["classify", str(a)]) == 2
    q = tmp_path / "q.txt"
    q.write_text("0_2\n1 1\n")
    assert main(["lcp", str(q), write_matrix(tmp_path, "i.txt", RatMatrix.identity(2))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("digit separator '_'") == 2 and "Traceback" not in captured.err
    # int() reads the Arabic-Indic digit two (U+0662) as 2
    a.write_text("\u0662\n1 \u0660\n0 1\n", encoding="utf-8")
    assert main(["classify", str(a)]) == 2
    q.write_text("\u0662\n1 1\n", encoding="utf-8")
    assert main(["lcp", str(q), write_matrix(tmp_path, "i.txt", RatMatrix.identity(2))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("first line '\u0662' is not ASCII") == 2
    assert "Traceback" not in captured.err


def test_broken_pipe_exits_141_without_traceback(tmp_path):
    # stdout is a pipe whose reader is gone before the report is written
    path = write_matrix(tmp_path, "m5.txt", M5_ORDER2)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for extra in ([], ["--json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "semimono", "classify", path, *extra],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


def test_broken_pipe_in_process_exits_141(tmp_path, monkeypatch):
    # a stdout whose write fails as a pipe without a reader does: main
    # points its descriptor, here the write end of a pipe the test owns, at
    # the null device and exits 141
    path = write_matrix(tmp_path, "m.txt", M3_ORDER2_E0)
    for extra in ([], ["--json"]):
        read_end, write_end = os.pipe()

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return write_end

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["classify", path, *extra]) == 141
            assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        finally:
            os.close(read_end)
            os.close(write_end)


# ---------------------------------------------------------------------------
# classify


def test_classify_fixture_human(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "exact order E0" in out and "exact order 2" in out
    assert "Z" in out and "inverse_Z" in out


def test_classify_fixture_json(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["classify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "semimono-report/1"
    assert report["results"]["exact_order"]["E0"]["k"] == 2
    assert report["results"]["Z"] is True
    assert report["results"]["verdicts"]["inverse_Z"]["member"] is True


def test_classify_non_z_fixture(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M4_ORDER2_NONZ)
    assert main(["classify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["Z"] is False
    assert report["results"]["verdicts"]["inverse_Z"]["member"] is True
    assert report["results"]["exact_order"]["E0"]["k"] == 2


def test_classify_identity(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.txt", RatMatrix.identity(3))
    assert main(["classify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdicts"]["strictly_semimonotone"]["member"] is True
    assert report["results"]["exact_order"]["E"]["k"] == 0


def test_classify_reports_deterministic_modulo_timing(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    main(["classify", path, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["classify", path, "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert first == second


def test_classify_sweeps_each_support_table_once(tmp_path, capsys, monkeypatch):
    # four (matrix, variant) tables of 31 supports decided by the sweep
    # (sign tests at orders 1 and 2, _pair_fails on each pair, _witness
    # above), one witness for the first failing support of each, plus one
    # full-matrix public oracle call per almost variant
    calls = []
    for name in ("_pair_fails", "_witness", "feasible_strict", "feasible_semistrict"):
        oracle = getattr(classify, name)
        monkeypatch.setattr(
            classify, name, lambda *args, oracle=oracle: calls.append(args) or oracle(*args)
        )
    classify.exact_order.cache_clear()
    path = write_matrix(tmp_path, "m5.txt", M5_ORDER2)
    assert main(["classify", path]) == 0
    assert 0 < len(calls) <= 4 * 31 + 4 + 2


def test_classify_scans_the_principal_minors_once(tmp_path, monkeypatch):
    # P0 and P read one scan: on the order-6 P-matrix 7I - J (its order-m
    # minors are 7^(m-1) (7 - m) > 0) each of the 63 principal minors is
    # eliminated once, where a scan per verdict made 126 calls
    calls = []
    original = ratcore._int_det
    monkeypatch.setattr(ratcore, "_int_det", lambda rows: calls.append(len(rows)) or original(rows))
    a = RatMatrix([[6 if i == j else -1 for j in range(6)] for i in range(6)])
    assert main(["classify", write_matrix(tmp_path, "p6.txt", a)]) == 0
    assert len(calls) == 2**6 - 1


def test_classify_builds_the_symmetric_part_once(tmp_path, monkeypatch):
    # the copositive and strictly copositive verdicts and both copositive
    # exact orders read one (A + A^T)/2, built in one step; a symmetric
    # matrix is its own symmetric part and builds none
    built = []
    real_init = RatMatrix.__init__
    monkeypatch.setattr(
        RatMatrix, "__init__", lambda self, rows: real_init(self, rows) or built.append(self)
    )
    for a in (M4_ORDER2_NONZ, RatMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])):
        sym = RatMatrix([[(x + y) / 2 for x, y in zip(row, col)]
                         for row, col in zip(a.entries, a.transpose().entries)])
        built.clear()
        classify.exact_order.cache_clear()
        assert main(["classify", write_matrix(tmp_path, "a.txt", a)]) == 0
        assert built[0] == a and built[1:].count(sym) == (not a.is_symmetric())


def _nonneg_diagonal_matrices(n, count):
    # positive diagonal, mostly negative off-diagonal: the mix whose larger
    # supports reach the simplex and come back feasible with a witness
    rng = random.Random(n)
    return [
        RatMatrix(
            [
                [F(rng.randint(1, 9) if i == j else rng.randint(-9, 3), rng.randint(1, 4))
                 for j in range(n)]
                for i in range(n)
            ]
        )
        for _ in range(count)
    ]


# sha256 over the `results` objects of `classify --json`, in order, computed
# before the exact kernel moved to integer pivots: they pin every verdict
# and every witness vector the simplex produced.
GOLDEN_CLASSIFY = {
    "fixtures": (
        lambda: [getattr(matrices, name) for name in CLASSIFY_FIXTURES],
        "c8813cfa0eab7f5a7c94fc18c988687ff13368ac0925ea76bbb6043413e39892",
    ),
    "order-3": (
        lambda: _nonneg_diagonal_matrices(3, 8),
        "e446a32a2aa74fb17dfb0c950832ebc9a15a7559e1ebb115926c02afa184fa66",
    ),
    "order-4": (
        lambda: _nonneg_diagonal_matrices(4, 8),
        "d219a3042a8e2deda9046b9fa8677566686c8d2767487da95b1cc42bc931d1ca",
    ),
    "order-5": (
        lambda: _nonneg_diagonal_matrices(5, 8),
        "2f2391fba0eeaf9581f5356f2006ef44920785aa7b6d9b5ecc5794bf1ff7cfae",
    ),
    "order-6": (
        lambda: _nonneg_diagonal_matrices(6, 8),
        "bfd5f62bbf7a987d91cf57026f52683da633d10e0a98acc9fc5f6888e67dfb51",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_CLASSIFY))
def test_classify_results_golden_digest(case, tmp_path, capsys):
    build, digest = GOLDEN_CLASSIFY[case]
    h = hashlib.sha256()
    for i, m in enumerate(build()):
        path = write_matrix(tmp_path, f"m{i}.txt", m)
        main(["classify", path, "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        h.update(json.dumps(results, sort_keys=True).encode())
    assert h.hexdigest() == digest


def test_classify_missing_file_exit_2(capsys):
    assert main(["classify", "/nonexistent/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


# (the faulty file or flag, its text or value, the message's tail); the text
# None stands for a path that cannot be read (a directory)
USAGE_FAULTS = {
    "empty matrix file": ("matrix", "", "empty matrix file"),
    "order 0": ("matrix", "0\n", "order must be >= 1"),
    "too few rows": ("matrix", "2\n1 0\n", "expected 2 rows after the order line, got 1"),
    "short row": ("matrix", "2\n1 0\n0\n", "row 2 has 1 entries, expected 2"),
    "unreadable matrix": ("matrix", None, "cannot read"),
    "empty vector file": ("vector", "", "empty vector file"),
    "vector of the wrong length": ("vector", "3\n1 1\n", "expected 3 entries, got 2"),
    "length 0": ("vector", "0\n", "length must be >= 1"),
    "length -1": ("vector", "-1\n", "length must be >= 1"),
    "vector longer than the matrix": ("vector", "3\n1 1 1\n", "length 3 does not match the order 2 of"),
    "unreadable vector": ("vector", None, "cannot read"),
    "q0 trials over the budget": ("--q0-trials", str(cli.Q0_TRIAL_BUDGET + 1), "Q0_TRIAL_BUDGET"),
    "attempts over the calibrated budget": (
        "--attempts", str(cli.CALIBRATED_ATTEMPT_BUDGET + 1), "CALIBRATED_ATTEMPT_BUDGET"
    ),
    "attempts over the screen budget at order 12": (
        "--attempts", f"{cli.SCREEN_BUDGET // cli.SUPPORT_BUDGET + 1} --template nonneg",
        "SCREEN_BUDGET",
    ),
}


@pytest.mark.parametrize("case", list(USAGE_FAULTS))
def test_file_faults_exit_2_with_one_line(case, tmp_path, capsys, monkeypatch):
    # each fault of a matrix or vector file is a usage error: exit 2 and one
    # line on stderr naming the file, never a traceback.  A matrix fault
    # stops classify and lcp, a vector fault lcp; the other file is sound.
    # A budget fault names the budget, before lcp reads either file (both
    # are unreadable here) and before explore searches.
    faulty, text, tail = USAGE_FAULTS[case]
    flag = faulty.startswith("--")
    files = {"matrix": "2\n1 0\n0 1\n", "vector": "2\n1 1\n"}
    files.update({"matrix": None, "vector": None} if flag else {faulty: text})
    paths = {}
    for kind, content in files.items():
        path = tmp_path / f"{kind}.txt"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        paths[kind] = str(path)
    runs = [["lcp", paths["vector"], paths["matrix"]]]
    if faulty == "matrix":
        runs.append(["classify", paths["matrix"]])
    if faulty == "--q0-trials":
        runs = [runs[0] + [faulty, text]]
    if faulty == "--attempts":
        monkeypatch.setattr(explore, "_search", lambda *args: pytest.fail("searched"))
        runs = [["explore", "--target", "conjecture1", "--n", "12", "--seed", "1", faulty,
                 *text.split()]]
    for argv in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert tail in err and (flag or paths[faulty] in err)


# explore runs the search budgets must admit: the default --attempts at
# order 12 on every target and on the costliest template, the measured runs
# in ROADMAP, the README example, and each budget's edge (one attempt more
# is refused, USAGE_FAULTS)
ADMITTED_SEARCHES = [
    *(["--target", t, "--n", "12"] for t in ("conjecture1", "conjecture2")),
    *(["--target", t, "--n", "12", "--k", "1"] for t in ("exact-order", "neg-entries")),
    ["--target", "exact-order", "--n", "12", "--k", "1", "--template", "nonneg"],
    ["--target", "conjecture1", "--n", "7", "--attempts", "1000000"],
    ["--target", "conjecture1", "--n", "8", "--attempts", "1000000"],
    *(["--target", t, "--n", "12", "--attempts", "20000"] for t in ("conjecture1", "conjecture2")),
    ["--target", "conjecture2", "--n", "4", "--attempts", "200000", "--hits", "1000"],
    ["--target", "conjecture1", "--n", "12", "--attempts", str(cli.CALIBRATED_ATTEMPT_BUDGET)],
    ["--target", "conjecture1", "--n", "12", "--template", "nonneg",
     "--attempts", str(cli.SCREEN_BUDGET // cli.SUPPORT_BUDGET)],
]


@pytest.mark.parametrize("argv", ADMITTED_SEARCHES, ids=" ".join)
def test_the_search_budgets_admit_the_documented_runs(argv, monkeypatch):
    searched = []

    def search(search, target, config, *args, **kwargs):
        searched.append(config.max_attempts)
        return explore.SearchReport(target, config.max_attempts, (), (), ())

    monkeypatch.setattr(explore, "_search", search)
    assert main(["explore", "--seed", "1", *argv]) == 0 and len(searched) == 1


# ---------------------------------------------------------------------------
# audit


def test_audit_inverse_theorem_passes(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["audit", path, "--theorem", "thm3.5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["hypotheses_met"] is True
    assert all(c["passed"] for c in report["results"]["conclusions"])


def test_audit_hypotheses_not_met(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.txt", RatMatrix.identity(3))
    assert main(["audit", path, "--theorem", "thm3.4"]) == 0
    out = capsys.readouterr().out
    assert "hypotheses met: no" in out


def test_audit_nonclosure_pair(tmp_path, capsys):
    pa = write_matrix(tmp_path, "a.txt", NONCLOSURE_A)
    pb = write_matrix(tmp_path, "b.txt", NONCLOSURE_B)
    assert main(["audit", pa, "--theorem", "nonclosure", "--matrix-b", pb, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["passed"] for c in report["results"]["conclusions"])


def test_audit_nonclosure_needs_second_matrix(tmp_path, capsys):
    pa = write_matrix(tmp_path, "a.txt", NONCLOSURE_A)
    assert main(["audit", pa, "--theorem", "nonclosure"]) == 2


@pytest.mark.parametrize("theorem", [t for t in verify.AUDIT_IDS if t != "nonclosure"])
def test_audits_of_one_matrix_refuse_matrix_b(theorem, tmp_path, capsys):
    # only nonclosure reads a second matrix, so any other audit given
    # --matrix-b is a usage error, raised before either file is read: both
    # paths here name nothing
    argv = ["audit", str(tmp_path / "a.txt"), "--theorem", theorem,
            "--matrix-b", str(tmp_path / "b.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: audit {theorem} reads one matrix and takes no --matrix-b\n"


def test_audit_wrong_order_is_usage_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.txt", RatMatrix.identity(4))
    assert main(["audit", path, "--theorem", "thm3.4"]) == 2


def test_audit_unknown_theorem_exit_2(tmp_path):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["audit", path, "--theorem", "bogus"]) == 2


def test_audit_counterexample_text_exit_1(tmp_path, capsys, monkeypatch):
    # one conclusion of thm3.5 forced to fail: the text names it and prints
    # A with its columns aligned, the JSON carries A, and both exit 1
    monkeypatch.setattr(verify, "count_negative_eigenvalues", lambda a: 2)
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["audit", path, "--theorem", "thm3.5"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] exactly one negative eigenvalue: count = 2\n" in out
    assert out.endswith(
        "  counterexample matrix:\n"
        "     0  -1  -1\n"
        "    -2   0  -1\n"
        "    -3  -4   0\n"
    )
    assert main(["audit", path, "--theorem", "thm3.5", "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["counterexample"] == {
        "order": 3, "entries": [["0", "-1", "-1"], ["-2", "0", "-1"], ["-3", "-4", "0"]]
    }


def test_audit_invariance_with_seed(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["audit", path, "--theorem", "invariance", "--seed", "3"]) == 0


def _audit_matrices():
    """The fixtures plus seeded conjecture-1 hits of orders 3 and 4: Z
    matrices of E0 exact order 2, so both audits reach their Schur checks."""
    out = [getattr(matrices, name) for name in CLASSIFY_FIXTURES]
    for n, seed in ((3, 31), (4, 32)):
        config = explore.GeneratorConfig(
            order=n, template=explore.template_z(n), numerator_bound=4, denominator_bound=2,
            diagonal_numerator_bound=8, seed=seed, max_attempts=4000,
        )
        out.extend(explore.search_conjecture_1(config, target_hits=4).hits)
    return out


# sha256 over the `results` objects of `audit --json`, in order, computed
# while Schur complements still came from the partitioned formula: they pin
# every conclusion and its evidence text.
GOLDEN_AUDIT = {
    "thm3.5": ((3,), "d76bec85ce964004faabdc3bb511f11c819ea8247f4afcf85b024a42a9eef37e"),
    "thm4.11": ((2, 3, 4, 5), "6217c978054e00353dbaf5d8c4bf9e6ab2bb9bb0fd00e071e1e26dbf6f3038a2"),
}


@pytest.mark.parametrize("theorem", list(GOLDEN_AUDIT))
def test_audit_results_golden_digest(theorem, tmp_path, capsys):
    orders, digest = GOLDEN_AUDIT[theorem]
    h = hashlib.sha256()
    for i, m in enumerate(m for m in _audit_matrices() if m.order in orders):
        path = write_matrix(tmp_path, f"m{i}.txt", m)
        assert main(["audit", path, "--theorem", theorem, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        h.update(json.dumps(results, sort_keys=True).encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# explore


def test_explore_exact_order_writes_hits(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "explore",
            "--target", "exact-order",
            "--n", "3",
            "--k", "2",
            "--seed", "7",
            "--attempts", "400",
            "--hits", "3",
            "--out", str(out_dir),
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["hit_count"] == 3
    hit_files = sorted(out_dir.glob("hit_*.txt"))
    assert len(hit_files) == 3
    from semimono.classify import Variant, exact_order

    for hf in hit_files:
        m = parse_matrix_text(hf.read_text(), str(hf))
        assert exact_order(m, Variant.E0).k == 2
    assert (out_dir / "report.json").exists()


def test_explore_requires_seed(capsys):
    assert main(["explore", "--target", "exact-order", "--n", "3", "--k", "2"]) == 2


def test_explore_exact_order_requires_k(capsys):
    assert main(["explore", "--target", "exact-order", "--n", "3", "--seed", "1"]) == 2


@pytest.mark.parametrize("target, k", [("conjecture1", "7"), ("conjecture2", "-4"), ("conjecture1", "2")])
def test_explore_conjecture_targets_refuse_k(target, k, tmp_path, capsys, monkeypatch):
    # the conjectures fix k = 2, so any --k, even 2, is a usage error, raised
    # before the search and before --out makes its directory
    searched = []
    monkeypatch.setattr(explore, "_search", lambda *args: searched.append(args))
    out = tmp_path / "d"
    argv = ["explore", "--target", target, "--n", "3", "--k", k, "--seed", "1", "--attempts", "5",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not searched and not out.exists()
    assert captured.err == f"error: explore {target} searches exact order 2 and takes no --k\n"


@pytest.mark.parametrize(
    "target, variant", [("conjecture1", "e"), ("conjecture2", "e"), ("conjecture2", "e0")]
)
def test_explore_conjecture_targets_refuse_variant(target, variant, tmp_path, capsys, monkeypatch):
    # the conjectures are about E0 exact order 2, so any --variant, even e0,
    # is a usage error, raised before the search and before --out makes its
    # directory
    searched = []
    monkeypatch.setattr(explore, "_search", lambda *args: searched.append(args))
    out = tmp_path / "d"
    argv = ["explore", "--target", target, "--n", "3", "--variant", variant, "--seed", "1",
            "--attempts", "5", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not searched and not out.exists()
    assert captured.err == (
        f"error: explore {target} searches the E0 variant and takes no --variant\n"
    )


@pytest.mark.parametrize(
    "extra",
    [
        ["--target", "exact-order", "--n", "3", "--k", "5"],
        ["--target", "exact-order", "--n", "3", "--k", "2", "--attempts", "0"],
        ["--target", "neg-entries", "--n", "3", "--k", "3"],
        ["--target", "conjecture1", "--n", "0"],
        ["--target", "conjecture1", "--n", "2"],
        ["--target", "exact-order", "--n", "3", "--k", "2", "--hits", "0"],
        ["--target", "conjecture2", "--n", "3", "--den-bound", "256"],
    ],
    ids=["k-above-n", "zero-attempts", "neg-entries-k-equals-n", "order-zero",
         "conjecture1-order-two", "zero-hits", "den-bound-256"],
)
def test_explore_usage_errors_exit_2(extra, tmp_path, capsys):
    assert main(["explore", "--seed", "1", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: explore") and "Traceback" not in err
    # every check runs before --out makes its directory
    out = tmp_path / "d"
    assert main(["explore", "--seed", "1", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == err and not out.exists()


@pytest.mark.parametrize("flag", ["--num-bound", "--den-bound", "--diag-bound"])
def test_explore_bounds_past_2_31_exit_2(flag, capsys):
    argv = ["explore", "--target", "conjecture2", "--n", "3", "--seed", "1",
            "--attempts", "5", flag, str(2**31 + 1)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: explore") and "2**31" in err and "Traceback" not in err


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "under-a-file"])
def test_explore_out_that_cannot_be_a_directory_exits_2_before_searching(
    sub, tmp_path, capsys, monkeypatch
):
    searched = []
    monkeypatch.setattr(explore, "_search", lambda *args: searched.append(args))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / sub if sub else tmp_path / "file"
    argv = ["explore", "--target", "conjecture1", "--n", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not searched
    assert captured.err.startswith("error: explore --out: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_explore_out_write_fault_exits_2(tmp_path, capsys):
    # a directory where report.json should go: the search runs, the write fails
    (tmp_path / "report.json").mkdir()
    argv = ["explore", "--target", "conjecture1", "--n", "3", "--seed", "1", "--attempts", "5",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: explore --out: ")
    assert "Traceback" not in captured.err


def test_explore_nonneg_template_all_hits(capsys):
    code = main(
        [
            "explore",
            "--target", "exact-order",
            "--n", "2",
            "--k", "0",
            "--seed", "5",
            "--attempts", "30",
            "--template", "nonneg",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["hit_count"] == 30


# sha256 of the report.json text that `explore --out` writes, for one small
# seeded run per target: a search refactor must leave these unchanged.
GOLDEN_REPORTS = {
    "exact-order": (
        ["--n", "3", "--k", "2", "--seed", "7", "--attempts", "400", "--hits", "3"],
        "e86c3a2b1b713ec68993ae09cf469bbc5f0368b60dd5b76f83b80b1f997e82cb",
    ),
    "conjecture1": (
        ["--n", "4", "--seed", "1", "--attempts", "2000", "--hits", "3"],
        "0ddcb99228d4591f813c75e875f014690228de33e679ab50609ad6f774ef6be7",
    ),
    "conjecture2": (
        ["--n", "4", "--seed", "2", "--attempts", "3000", "--hits", "3"],
        "ff01ae7ee7c71e68f02c560e363019c0fab764b26e8792136c463eb4190f355f",
    ),
    "neg-entries": (
        ["--n", "3", "--k", "1", "--seed", "4", "--attempts", "400", "--hits", "3",
         "--template", "diag-free"],
        "f606eabdbcf1f90db6fc0691192e0403838d712dbfca484b0fd9260c7853fbbb",
    ),
}


@pytest.mark.parametrize("target", list(GOLDEN_REPORTS))
def test_explore_report_golden_digest(target, tmp_path, capsys):
    args, digest = GOLDEN_REPORTS[target]
    assert main(["explore", "--target", target, *args, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# The `explore --json` input digest of each GOLDEN_REPORTS run, without a
# bound flag and with each bound flag in turn: it hashes the generator bounds
# the run used, so these pin how the flags merge over a target's defaults.
EXPLORE_BOUND_FLAGS = ([], ["--num-bound", "3"], ["--den-bound", "1"], ["--diag-bound", "6"])
GOLDEN_INPUT_DIGESTS = {
    "exact-order": (
        "9a21cc824019fe00efb333d0b77e81dd32e430d860dcb3aeaae07f8d1e89256d",
        "d364c9b2b55e4f2af737be6524aab714e1fba1dd44d53b7900d3582287a48394",
        "38e1083602f91eb5b060e5dc8cd4d93357bc47f37edc6208951fe8259de16b2d",
        "e500a3a51c1b762f696aaed7b652279e40985e24d040b70ec26f4613a76cbe7f",
    ),
    "conjecture1": (
        "cd463e63576ed411c39b43bc8521bf632345487079948231a96d66c1ea94851f",
        "388410513f6147dddc9338e3babf46cb07f8112511df6bff7ad85b1827d7de46",
        "d8ab85dbfe38275a42103b6920639d1f81a0000bab2767f06a57b34b33bb6270",
        "0f90f1cf893db946253e590c26019a1ce786eae9cb0554dadeb00b95cb02888a",
    ),
    "conjecture2": (
        "71d490861083ebd5be585affbee8b5f6d5e5ffa14835c3e77c8237c88eaa900f",
        "0bc08a6a22e227a2c27a7ab392e5534bff6beeac091e5b4d1075795b92c784fb",
        "575e3cb3922aa17a155ff9ffb61f6954b954456795f61008908532703c878b42",
        "4eaa605ab877847150aaa1f384cba631669402069323486abb5de11ef6179c9b",
    ),
    "neg-entries": (
        "ad770463769a11db0edc899168f8f65f2fe208ee6adb09769abd408e70a0b60c",
        "3a698b5f99a95608494880b6be0f187b0bb930518812c0db69fb12f799ec44ae",
        "80fe9ba815eb46dbad92822c4cf5f731f569b335282fdec208de016d8e0fc3dd",
        "b134b30e88d0d2a65c24281a900bb9fa517c03f6a352fe93435d43c4c81b6752",
    ),
}


@pytest.mark.parametrize("target", list(GOLDEN_REPORTS))
def test_explore_input_digest_golden(target, capsys):
    args = GOLDEN_REPORTS[target][0]
    digests = []
    for flags in EXPLORE_BOUND_FLAGS:
        assert main(["explore", "--target", target, *args, *flags, "--json"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["input_digest"].removeprefix("sha256:"))
    assert tuple(digests) == GOLDEN_INPUT_DIGESTS[target]


def test_explore_conjecture2_small(capsys):
    code = main(
        [
            "explore",
            "--target", "conjecture2",
            "--n", "4",
            "--seed", "2",
            "--attempts", "3000",
            "--hits", "3",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["counterexamples"] == []


# ---------------------------------------------------------------------------
# lcp


def test_lcp_identity(tmp_path, capsys):
    q = write_vector(tmp_path, "q.txt", [1, 1, 1])
    a = write_matrix(tmp_path, "a.txt", RatMatrix.identity(3))
    assert main(["lcp", q, a, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["feasible"] is True
    assert report["results"]["solutions"] == [
        {"z": ["0", "0", "0"], "w": ["1", "1", "1"], "support": []}
    ]
    assert report["results"]["substitution_verified"] is True


def test_lcp_negative_q(tmp_path, capsys):
    q = write_vector(tmp_path, "q.txt", [-1, -2])
    a = write_matrix(tmp_path, "a.txt", RatMatrix.identity(2))
    assert main(["lcp", q, a]) == 0
    out = capsys.readouterr().out
    assert "z = (1, 2)" in out


def test_lcp_dimension_mismatch(tmp_path, capsys):
    q = write_vector(tmp_path, "q.txt", [1, 2, 3])
    a = write_matrix(tmp_path, "a.txt", RatMatrix.identity(2))
    assert main(["lcp", q, a]) == 2
    assert capsys.readouterr().err == f"error: {q}: length 3 does not match the order 2 of {a}\n"


def test_lcp_q0_violation_exit_1(tmp_path, capsys):
    from matrices import NON_Q0_MATRIX

    q = write_vector(tmp_path, "q.txt", [1, 1])
    a = write_matrix(tmp_path, "a.txt", NON_Q0_MATRIX)
    code = main(["lcp", q, a, "--q0-trials", "300", "--seed", "3", "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["q0"]["violations"]
    assert "falsify" in report["results"]["q0"]["note"]


def test_lcp_solves_through_a_singular_block(tmp_path, capsys):
    # every principal block of A is singular, and z = (1, 0) solves q = (0, -1)
    a_matrix = RatMatrix([[0, 0], [1, 0]])
    q = write_vector(tmp_path, "q.txt", [0, -1])
    a = write_matrix(tmp_path, "a.txt", a_matrix)
    assert main(["lcp", q, a]) == 0
    out = capsys.readouterr().out
    assert "enumeration solutions: 1" in out and "support {1}: z = (1, 0), w = (0, 0)" in out
    # A is not Q0: q1 > 0 > q2 is feasible, but w2 >= 0 needs z1 > 0 and
    # w1 = q1 > 0 forbids it.  Every other feasible q (q1 >= 0) is solvable,
    # so only those may be reported.
    assert main(["lcp", q, a, "--q0-trials", "60", "--seed", "1", "--json"]) == 1
    q0 = json.loads(capsys.readouterr().out)["results"]["q0"]
    assert q0["violations"]
    assert all(F(v[0]) > 0 > F(v[1]) for v in q0["violations"])


def test_lcp_failed_substitution_exit_1(tmp_path, capsys, monkeypatch):
    # a solution that fails substitution into w = A z + q is reported, and
    # the run exits 1
    monkeypatch.setattr(lcp.LcpSolution, "satisfies", lambda self, inst: False)
    q = write_vector(tmp_path, "q.txt", [-1, -2])
    a = write_matrix(tmp_path, "a.txt", RatMatrix.identity(2))
    assert main(["lcp", q, a]) == 1
    assert capsys.readouterr().out.endswith("  substitution check: FAILED\n")
    assert main(["lcp", q, a, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["substitution_verified"] is False


def test_lcp_negative_q0_trials_exit_2(tmp_path, capsys):
    q = write_vector(tmp_path, "q.txt", [1, 1])
    a = write_matrix(tmp_path, "a.txt", RatMatrix.identity(2))
    assert main(["lcp", q, a, "--q0-trials", "-3", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lcp") and "Traceback" not in captured.err
    # zero trials still means "skip the sampling"
    assert main(["lcp", q, a, "--q0-trials", "0", "--json"]) == 0
    assert "q0" not in json.loads(capsys.readouterr().out)["results"]


def test_lcp_q0_trials_eliminate_each_block_once_per_op(tmp_path, capsys, monkeypatch):
    # lcp_solve_enum and q0_falsify share one factoring of A: one elimination
    # per principal block per op, also when ops alternate between matrices
    calls = []
    real = lcp._gauss_jordan
    monkeypatch.setattr(lcp, "_gauss_jordan", lambda rows: calls.append(1) or real(rows))
    lcp._factor.cache_clear()
    q = write_vector(tmp_path, "q.txt", [-1, 1, F(1, 2)])
    # two P-matrices, so every trial solves and each op exits 0
    first = write_matrix(tmp_path, "a.txt", RatMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    second = write_matrix(tmp_path, "b.txt", RatMatrix([[3, 1, 0], [F(1, 2), 2, 1], [0, -1, 4]]))
    for a in (first, second, first):
        calls.clear()
        assert main(["lcp", q, a, "--q0-trials", "30", "--seed", "2", "--json"]) == 0
        assert len(calls) == 2 ** 3 - 1
    capsys.readouterr()


def test_cli_entry_module_runs(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", RatMatrix.identity(2))
    assert main(["classify", path]) == 0
    capsys.readouterr()


def _lcp_instances(n, count):
    # small integers, so that zero entries and singular blocks are common
    rng = random.Random(f"lcp:{n}")
    return [
        (
            [rng.randint(-3, 3) for _ in range(n)],
            RatMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]),
        )
        for _ in range(count)
    ]


def _lcp_fixture_instances():
    rng = random.Random("lcp:fixtures")
    out = []
    for name in CLASSIFY_FIXTURES:
        a = getattr(matrices, name)
        out.append(([rng.randint(-3, 3) for _ in range(a.order)], a))
    return out


# sha256 over the `results` objects of `lcp --json --q0-trials 4`, in order:
# they pin every solution, its support and the q0 sampling.
GOLDEN_LCP = {
    "fixtures": (
        _lcp_fixture_instances,
        "738786df69e3c0bb72023c3a969eb631865a204735b89d64285559a461628e24",
    ),
    "order-2": (
        lambda: _lcp_instances(2, 30),
        "91625d9bb52ab623f0eca400fdd994bf596873d4fcaa4b90470791ee6cb246ab",
    ),
    "order-3": (
        lambda: _lcp_instances(3, 30),
        "c0a1cd16f119c040bfcc919c155cfa3a3b1acb75dd915967c96f1c184ff8e143",
    ),
    "order-4": (
        lambda: _lcp_instances(4, 20),
        "fb1dc8d3ed7cbca963692527f2e78d8e1608592a394faa61a8d6b25fc8cb4a47",
    ),
    "order-5": (
        lambda: _lcp_instances(5, 12),
        "9ea7c320c3507704e390245410f0216458437af538bb4c547259c21ffbd0ee11",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_LCP))
def test_lcp_results_golden_digest(case, tmp_path, capsys):
    build, digest = GOLDEN_LCP[case]
    h = hashlib.sha256()
    for i, (q, a) in enumerate(build()):
        q_path = write_vector(tmp_path, f"q{i}.txt", q)
        a_path = write_matrix(tmp_path, f"a{i}.txt", a)
        main(["lcp", q_path, a_path, "--q0-trials", "4", "--seed", str(i), "--json"])
        results = json.loads(capsys.readouterr().out)["results"]
        h.update(json.dumps(results, sort_keys=True).encode())
    assert h.hexdigest() == digest


def test_lcp_q0_seed_defaults_to_zero(tmp_path, capsys):
    for i, (q, a) in enumerate(_lcp_fixture_instances()):
        argv = ["lcp", write_vector(tmp_path, f"q{i}.txt", q), write_matrix(tmp_path, f"a{i}.txt", a),
                "--q0-trials", "4", "--json"]
        results = []
        for extra in ([], ["--seed", "0"]):
            main(argv + extra)
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert "q0" in results[0] and results[0] == results[1]


def test_orders_over_the_support_budget_exit_2(tmp_path, capsys):
    n = (cli.SUPPORT_BUDGET + 1).bit_length()
    a = write_matrix(tmp_path, "a.txt", RatMatrix.identity(n))
    q = write_vector(tmp_path, "q.txt", [1] * n)
    for argv in (
        ["classify", a],
        ["audit", a, "--theorem", "invariance"],
        ["lcp", q, a],
        ["explore", "--target", "conjecture1", "--n", str(n), "--seed", "1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SUPPORT_BUDGET" in captured.err and "Traceback" not in captured.err
    # the largest admitted order still runs
    assert main(["classify", write_matrix(tmp_path, "b.txt", RatMatrix.identity(n - 1))]) == 0


# ---------------------------------------------------------------------------
# text reports


def _text_runs(case):
    """The argv lists of one text golden case, after writing their input
    files under fixed names in the current directory, so that the paths
    the reports echo are the same in every run."""
    for name in (*CLASSIFY_FIXTURES, "NONCLOSURE_B"):
        Path(f"{name}.txt").write_text(format_matrix(getattr(matrices, name)))
    if case == "classify":
        return [["classify", f"{name}.txt"] for name in CLASSIFY_FIXTURES]
    if case == "explore":
        runs = [["explore", "--target", target, *args] for target, (args, _) in GOLDEN_REPORTS.items()]
        return runs + [["explore", "--target", "exact-order", "--n", "2", "--k", "0", "--seed", "5",
                        "--attempts", "30", "--template", "nonneg"]]
    if case == "lcp":
        runs = []
        for i, (q, a) in enumerate(_lcp_fixture_instances()):
            Path(f"q{i}.txt").write_text(format_vector(tuple(F(x) for x in q)))
            Path(f"a{i}.txt").write_text(format_matrix(a))
            runs.append(["lcp", f"q{i}.txt", f"a{i}.txt", "--q0-trials", "4", "--seed", str(i)])
        return runs
    theorem = case.removeprefix("audit ")
    extra = ["--matrix-b", "NONCLOSURE_B.txt"] if theorem == "nonclosure" else []
    return [
        ["audit", f"{name}.txt", "--theorem", theorem, "--variant", variant, *extra]
        for name in CLASSIFY_FIXTURES
        for variant in ("e0", "e")
    ]


# sha256 over (argv, exit code, stdout, stderr) of the human-readable runs,
# in order: they pin every byte of the text reports and of their errors,
# which the JSON digests above do not see.
GOLDEN_TEXT = {
    "classify": "463ae3d61e6399c95ccf4b3aa6a719a21aac77d80a973a462f7d4ace9f155573",
    "audit thm3.4": "94351f419dd92942041b455763d8a1ebf333a8cfab51f364237a297582a431a0",
    "audit thm3.5": "1c254d5d042a1f92f8dd2736846e402f465b51e14be0d570e498d81955517240",
    "audit prop4.10": "357724fea5acb50c302e0add306a041e25b4ca8a7dfecfb3a544e5e2cf7c50c6",
    "audit thm4.11": "48caabca57897e49a6ae82cd0ca155e54e58168b1e580885d1738381214e247e",
    "audit invariance": "875e5d05d9fc52fd1486087860e882a9d3df1a888ae37347a4af289c884ff2a7",
    "audit n=k+1": "9a3791b068688fba0b060f224fb9bfb3e2d655ce035d6cc9dc6e1096abb64d52",
    "audit sym-copositive": "033e3cebb49cf02697b7c1bb71c153819d5dd8cd688014e5b7c74e6f5e1e9c55",
    "audit nonclosure": "934ebe11a1d5fe6ce237981dd784c206e4948d2430e38bc790d4e2e26ad27b0f",
    "explore": "98746a97257823ac182f2b99cef658d556070033753a9296dd842faf13fb13a8",
    "lcp": "c22645df53b70a3bef856870ebcd5a8a20a77fd0af6d123eba58ea6d2d095ab4",
}


@pytest.mark.parametrize("case", list(GOLDEN_TEXT))
def test_text_report_golden_digest(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for argv in _text_runs(case):
        rc = main(argv)
        captured = capsys.readouterr()
        h.update(json.dumps([argv, rc, captured.out, captured.err]).encode())
    assert h.hexdigest() == GOLDEN_TEXT[case]


def test_text_golden_covers_every_audit():
    audits = [case.removeprefix("audit ") for case in GOLDEN_TEXT if case.startswith("audit ")]
    assert audits == list(verify.AUDIT_IDS)


# sha256 over (argv, exit code, stderr) of argparse's usage errors, whose
# usage line lists each verb's flags in the order they were declared
GOLDEN_USAGE = "5fab5b142d79efb342dbb89602b827341b0c8b3bdf4594c97b3961106c4c6a23"


def test_usage_errors_golden_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal
    h = hashlib.sha256()
    for argv in ([], ["bogus"], ["classify"], ["audit", "a.txt"], ["explore", "--n", "3"],
                 ["lcp", "q.txt"], ["lcp", "q.txt", "a.txt", "--q0-trials", "x"]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        h.update(json.dumps([argv, rc, captured.err]).encode())
    assert h.hexdigest() == GOLDEN_USAGE
