import hashlib
import json
import random
from fractions import Fraction as F

import pytest

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
from semimono import classify
from matrices import M3_ORDER2_E0, M4_ORDER2_NONZ, M5_ORDER2, NONCLOSURE_A, NONCLOSURE_B


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
    # "1_0" would parse as 10 through Fraction's digit separators
    for token in ("0.5", "1_0"):
        with pytest.raises(CliError) as err:
            parse_matrix_text(f"2\n1 {token}\n0 1\n", "m.txt")
        assert "row 1" in str(err.value) and "column 2" in str(err.value)


def test_parse_rejects_bad_shape():
    with pytest.raises(CliError):
        parse_matrix_text("2\n1 2 3\n4 5 6\n", "m.txt")
    with pytest.raises(CliError):
        parse_matrix_text("x\n", "m.txt")


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
    # four (matrix, variant) tables of 31 supports decided by the sweep,
    # plus one full-matrix public oracle call per almost variant
    calls = []
    for name in ("_witness", "feasible_strict", "feasible_semistrict"):
        oracle = getattr(classify, name)
        monkeypatch.setattr(
            classify, name, lambda *args, oracle=oracle: calls.append(args) or oracle(*args)
        )
    classify.exact_order.cache_clear()
    path = write_matrix(tmp_path, "m5.txt", M5_ORDER2)
    assert main(["classify", path]) == 0
    assert 0 < len(calls) <= 4 * 31 + 2


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


CLASSIFY_FIXTURES = (
    "M3_ORDER2_E0", "M3_ORDER2_E", "M4_ORDER2_NONZ", "M4_ORDER2_NONZ_INV",
    "M4_ORDER2_NONZ_B", "M4_ORDER2_NONZ_B_INV", "M4_ORDER3", "M5_ORDER3",
    "M4_ORDER2", "M5_ORDER2", "NONCLOSURE_A", "NONCLOSURE_SUM",
    "NONCLOSURE_PRODUCT", "SHIFT_BASE", "SHIFT_SUM", "COPOSITIVE_ONLY",
    "STRICTLY_COPOSITIVE_ONLY", "NON_Q0_MATRIX",
)

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


def test_audit_wrong_order_is_usage_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.txt", RatMatrix.identity(4))
    assert main(["audit", path, "--theorem", "thm3.4"]) == 2


def test_audit_unknown_theorem_exit_2(tmp_path):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["audit", path, "--theorem", "bogus"]) == 2


def test_audit_invariance_with_seed(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", M3_ORDER2_E0)
    assert main(["audit", path, "--theorem", "invariance", "--seed", "3"]) == 0


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


@pytest.mark.parametrize(
    "extra",
    [
        ["--target", "exact-order", "--n", "3", "--k", "5"],
        ["--target", "exact-order", "--n", "3", "--k", "2", "--attempts", "0"],
        ["--target", "neg-entries", "--n", "3", "--k", "3"],
        ["--target", "conjecture1", "--n", "0"],
        ["--target", "exact-order", "--n", "3", "--k", "2", "--hits", "0"],
    ],
    ids=["k-above-n", "zero-attempts", "neg-entries-k-equals-n", "order-zero", "zero-hits"],
)
def test_explore_usage_errors_exit_2(extra, capsys):
    assert main(["explore", "--seed", "1", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: explore") and "Traceback" not in err


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


def test_lcp_q0_violation_exit_1(tmp_path, capsys):
    from matrices import NON_Q0_MATRIX

    q = write_vector(tmp_path, "q.txt", [1, 1])
    a = write_matrix(tmp_path, "a.txt", NON_Q0_MATRIX)
    code = main(["lcp", q, a, "--q0-trials", "300", "--seed", "3", "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["q0"]["violations"]
    assert "falsify" in report["results"]["q0"]["note"]


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


def test_cli_entry_module_runs(tmp_path, capsys):
    path = write_matrix(tmp_path, "a.txt", RatMatrix.identity(2))
    assert main(["classify", path]) == 0
    capsys.readouterr()
