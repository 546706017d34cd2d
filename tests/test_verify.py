import dataclasses
import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from semimono import explore, ratcore, verify
from semimono.classify import Variant, WrongOrderError
from semimono.ratcore import (
    IndexSet,
    RatMatrix,
    SingularMatrixError,
    all_supports,
    det,
    inverse,
    principal_submatrix,
)
from semimono.verify import (
    AUDIT_IDS,
    NotSymmetricError,
    audit_invariance,
    audit_n_eq_k_plus_1,
    audit_nonclosure,
    audit_prop_4_10,
    audit_symmetric_copositive_equiv,
    audit_thm_3x3_inverse,
    audit_thm_3x3_structure,
    audit_thm_4_11,
)

from matrices import (
    M3_ORDER2_E,
    M3_ORDER2_E0,
    M4_ORDER2,
    M4_ORDER2_NONZ,
    M4_ORDER3,
    M5_ORDER2,
    NONCLOSURE_A,
    NONCLOSURE_B,
)
from oracles import det_cofactor, random_matrix, random_symmetric, random_z_matrix


def assert_clean(report):
    assert report.hypotheses_met
    assert report.conclusions
    failed = [c for c in report.conclusions if not c.passed]
    assert not failed, failed
    assert report.ok and report.counterexample is None


def assert_skipped(report):
    assert not report.hypotheses_met
    assert report.conclusions == ()
    assert report.ok


# ---------------------------------------------------------------------------
# 3x3 structure


def test_structure_audit_fixture_e0():
    assert_clean(audit_thm_3x3_structure(M3_ORDER2_E0, Variant.E0))


def test_structure_audit_fixture_strict():
    assert_clean(audit_thm_3x3_structure(M3_ORDER2_E, Variant.E))


def test_structure_audit_identity_skipped():
    assert_skipped(audit_thm_3x3_structure(RatMatrix.identity(3)))


def test_structure_audit_wrong_order():
    with pytest.raises(WrongOrderError):
        audit_thm_3x3_structure(RatMatrix.identity(4))


def test_structure_audit_includes_block_conclusions():
    report = audit_thm_3x3_structure(M3_ORDER2_E0, Variant.E0)
    names = [c.name for c in report.conclusions]
    assert any("negative entry in every row" in n for n in names)
    assert any("nonpositive" in n for n in names)


# ---------------------------------------------------------------------------
# 3x3 inverse / determinant / eigenvalue audit


def test_inverse_audit_fixture():
    assert_clean(audit_thm_3x3_inverse(M3_ORDER2_E0))


def test_inverse_audit_identity_skipped():
    assert_skipped(audit_thm_3x3_inverse(RatMatrix.identity(3)))


def test_inverse_audit_wrong_order():
    with pytest.raises(WrongOrderError):
        audit_thm_3x3_inverse(M4_ORDER2)


def test_singular_inverses_fail_the_inverse_conclusions(monkeypatch):
    # with every inverse forced singular, the order-2 blocks of the structure
    # audit and A itself in the inverse audit fail their inverse conclusion,
    # and each report carries A as its counterexample; det A stays real
    real = verify._det_and_inverse
    monkeypatch.setattr(verify, "_det_and_inverse", lambda m: (real(m)[0], None))
    for report, name, evidence in (
        (
            audit_thm_3x3_structure(M3_ORDER2_E0, Variant.E0),
            "order n-1 blocks: inverse exists and is entrywise nonpositive",
            "alpha={1,2} block is singular; alpha={1,3} block is singular; "
            "alpha={2,3} block is singular",
        ),
        (audit_thm_3x3_inverse(M3_ORDER2_E0), "inverse exists and is a Z-matrix", "singular"),
    ):
        failed = [c for c in report.conclusions if not c.passed]
        assert [(c.name, c.evidence) for c in failed] == [(name, evidence)]
        assert report.counterexample == M3_ORDER2_E0 and not report.ok


# ---------------------------------------------------------------------------
# row/column negativity audit


def test_row_negativity_audit_fixture():
    assert_clean(audit_prop_4_10(M4_ORDER2_NONZ, Variant.E0))


def test_row_negativity_audit_order_five():
    assert_clean(audit_prop_4_10(M5_ORDER2, Variant.E0))


def test_row_negativity_audit_identity_skipped():
    assert_skipped(audit_prop_4_10(RatMatrix.identity(4)))


def test_row_negativity_audit_small_order_skipped():
    assert_skipped(audit_prop_4_10(RatMatrix.identity(2)))


# ---------------------------------------------------------------------------
# Z exact-order-two audit


def test_z_audit_on_3x3_fixture():
    assert_clean(audit_thm_4_11(M3_ORDER2_E0))


def test_z_audit_skips_non_z():
    assert_skipped(audit_thm_4_11(M4_ORDER2_NONZ))


def test_z_audit_conclusion_names():
    report = audit_thm_4_11(M3_ORDER2_E0)
    names = [c.name for c in report.conclusions]
    assert len(names) == 5
    assert any("n-2" in n for n in names)
    assert any("Schur" in n for n in names)


def _planted_minor_matrices(rng, n):
    """Tagged matrices of order n: three Z-matrices, each planted with a
    case the cleared minors must get right, then a random Z-matrix and a
    random matrix."""
    def z_rows():
        return [list(row) for row in random_z_matrix(rng, n, num_bound=4, den_bound=3).entries]

    # row 1 has denominator LCM 6, its entries in columns 1 and 2 only 2
    rows = z_rows()
    rows[0][:3] = [F(1, 2), F(-1), F(-1, 3)]
    yield "sub-row LCM", RatMatrix(rows)
    rows = z_rows()
    rows[n // 2] = [F(0)] * n
    yield "zero row", RatMatrix(rows)
    # zero row sums on the leading order-(n-1) block make it singular
    rows = z_rows()
    for i in range(n - 1):
        rows[i][i] = -sum(rows[i][j] for j in range(n - 1) if j != i)
    yield "singular block", RatMatrix(rows)
    yield "random Z", random_z_matrix(rng, n, num_bound=4, den_bound=3)
    yield "random", random_matrix(rng, n, num_bound=4, den_bound=3)


def test_audit_minors_match_det_and_the_cofactor_oracle():
    # the P0/P verdicts and the audits read every minor from one
    # row-cleared D A; on every support, the full one included, in reverse
    # (size, lex) order so that a pivot left in the shared rows would show,
    # each must be det of the block
    rng = random.Random(411)
    seen = set()
    for n in range(3, 7):
        for case, m in _planted_minor_matrices(rng, n):
            minor = ratcore._principal_minors(m)
            for alpha in reversed(list(all_supports(n))):
                block = principal_submatrix(m, alpha)
                value = minor(alpha.members)
                assert value == det(block) == det_cofactor(block), (case, m, alpha)
            seen.add(case)
            if case == "sub-row LCM":
                assert lcm(*(v.denominator for v in m.entries[0][:2])) < lcm(
                    *(v.denominator for v in m.entries[0]))
            if case == "singular block":
                lead = IndexSet(n, tuple(range(1, n)))
                assert det_cofactor(principal_submatrix(m, lead)) == 0
    assert len(seen) == 5


def test_audit_minor_evidence_matches_the_cofactor_oracle(monkeypatch):
    # with the hypotheses taken as met, every conclusion of the audit on
    # the planted Z-matrices must read as it does with each minor from the
    # cofactor oracle, the "block singular" Schur branch included
    real_exact_order = verify.exact_order
    monkeypatch.setattr(
        verify, "exact_order",
        lambda a, variant: dataclasses.replace(real_exact_order(a, variant), k=2),
    )
    rng = random.Random(412)
    singular_branch = 0
    for n in range(3, 7):
        for case, m in itertools.islice(_planted_minor_matrices(rng, n), 4):
            report = audit_thm_4_11(m)
            assert report.hypotheses_met
            with monkeypatch.context() as patched:
                patched.setattr(
                    verify, "_principal_minors",
                    lambda a: lambda key: det_cofactor(principal_submatrix(a, IndexSet(a.order, key))),
                )
                assert audit_thm_4_11(m) == report, (case, m)
            schur = report.conclusions[4].evidence
            singular_branch += "block singular" in schur
            if case == "singular block":
                assert f"alpha={{{','.join(map(str, range(1, n)))}}}: block singular" in schur
    assert singular_branch >= 4


def _inverse_diagonal_evidence(a):
    """The Theorem 4.11 inverse-diagonal evidence as read off inverse(A)."""
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return "singular"
    return f"inverse diagonal = {[str(inv[i, i]) for i in range(a.order)]}"


def test_thm_4_11_inverse_diagonal_reads_as_the_inverse(monkeypatch):
    # the audit reads (A^{-1})_ii by Jacobi's identity from its order-(n-1)
    # minors and det A; the evidence must read as the diagonal of
    # inverse(A), on seeded conjecture-1 hits and on planted Z-matrices
    # whose hypotheses are taken as met, the singular ones included
    name = "inverse exists with positive diagonal"
    hits = 0
    for n in (3, 4, 5):
        report = explore.search_conjecture_1(
            explore.GeneratorConfig(
                order=n, template=explore.template_z(n), numerator_bound=4,
                denominator_bound=3, diagonal_numerator_bound=3 * n, seed=100 + n,
                max_attempts=20000,
            ),
            target_hits=15,
        )
        assert report.hit_count > 0
        for a in report.hits:
            evidence = {c.name: c.evidence for c in audit_thm_4_11(a).conclusions}
            assert evidence[name] == _inverse_diagonal_evidence(a), a
            hits += 1
    assert hits >= 30
    real_exact_order = verify.exact_order
    monkeypatch.setattr(
        verify, "exact_order",
        lambda a, variant: dataclasses.replace(real_exact_order(a, variant), k=2),
    )
    rng = random.Random(413)
    singular = 0
    for n in range(3, 7):
        for case, m in itertools.islice(_planted_minor_matrices(rng, n), 4):
            evidence = {c.name: c.evidence for c in audit_thm_4_11(m).conclusions}
            assert evidence[name] == _inverse_diagonal_evidence(m), (case, m)
            singular += evidence[name] == "singular"
    assert singular >= 4


# ---------------------------------------------------------------------------
# invariance audit


def test_invariance_audit_fixture():
    report = audit_invariance(M3_ORDER2_E0, seed=7)
    assert_clean(report)
    assert len(report.conclusions) == 8  # 4 transforms x 2 variants


def test_invariance_audit_identity():
    assert_clean(audit_invariance(RatMatrix.identity(3), seed=1))


def test_invariance_audit_order_five():
    assert_clean(audit_invariance(M5_ORDER2, seed=11))


# ---------------------------------------------------------------------------
# n = k + 1 audit


def test_nk1_audit_exact_order_three():
    assert_clean(audit_n_eq_k_plus_1(M4_ORDER3, Variant.E0))


def test_nk1_audit_exact_order_two_at_n3():
    assert_clean(audit_n_eq_k_plus_1(M3_ORDER2_E0, Variant.E0))


def test_nk1_audit_identity_skipped():
    assert_skipped(audit_n_eq_k_plus_1(RatMatrix.identity(3)))


# ---------------------------------------------------------------------------
# symmetric copositive equivalence


def test_symmetric_equiv_fixture():
    assert_clean(audit_symmetric_copositive_equiv(M3_ORDER2_E, Variant.E))


def test_symmetric_equiv_identity():
    assert_clean(audit_symmetric_copositive_equiv(RatMatrix.identity(3), Variant.E0))


def test_symmetric_equiv_random_corpus():
    rng = random.Random(17)
    for _ in range(40):
        m = random_symmetric(rng, 4)
        for variant in (Variant.E0, Variant.E):
            assert_clean(audit_symmetric_copositive_equiv(m, variant))


def test_symmetric_equiv_rejects_nonsymmetric():
    with pytest.raises(NotSymmetricError):
        audit_symmetric_copositive_equiv(M3_ORDER2_E0)


# ---------------------------------------------------------------------------
# non-closure audit


def test_nonclosure_fixture_pair():
    report = audit_nonclosure(NONCLOSURE_A, NONCLOSURE_B)
    assert_clean(report)


def test_nonclosure_identity_pair_skipped():
    assert_skipped(audit_nonclosure(RatMatrix.identity(3), RatMatrix.identity(3)))


def test_nonclosure_non_witnessing_pair_is_not_a_counterexample():
    # A + A = 2A stays in the class by positive scaling; the audit records
    # the failed observation but does not call it a counterexample
    report = audit_nonclosure(M3_ORDER2_E0, M3_ORDER2_E0)
    assert report.hypotheses_met
    sum_conclusion = next(c for c in report.conclusions if c.name.startswith("A + B"))
    assert not sum_conclusion.passed
    assert report.ok and report.counterexample is None


def test_nonclosure_dimension_mismatch():
    with pytest.raises(ValueError):
        audit_nonclosure(RatMatrix.identity(2), RatMatrix.identity(3))


def test_audit_registry_is_complete():
    assert set(AUDIT_IDS) == {
        "thm3.4",
        "thm3.5",
        "prop4.10",
        "thm4.11",
        "invariance",
        "n=k+1",
        "sym-copositive",
        "nonclosure",
    }
