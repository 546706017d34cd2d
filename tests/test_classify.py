import random
from collections import Counter
from fractions import Fraction as F

import pytest

from semimono import verify
from semimono.classify import (
    ClassLabel,
    ExactOrderResult,
    OrderStatus,
    SupportWitness,
    Variant,
    WrongOrderError,
    copositive_exact_order,
    exact_order,
    has_exact_order,
    is_P,
    is_P0,
    is_Z,
    is_almost_semimonotone,
    is_copositive,
    is_inverse_Z,
    is_nonnegative,
    is_semimonotone,
    is_strictly_copositive,
    is_strictly_semimonotone,
    negative_entry_profile,
)
from semimono.feasibility import feasible_semistrict, feasible_strict
from semimono.ratcore import RatMatrix, all_supports, det, principal_submatrix
from semimono.verify import audit_thm_3x3_structure

from matrices import (
    COPOSITIVE_ONLY,
    M3_ORDER2_E,
    M3_ORDER2_E0,
    M4_ORDER2,
    M4_ORDER2_NONZ,
    M4_ORDER3,
    M5_ORDER2,
    M5_ORDER3,
    NONCLOSURE_A,
    NONCLOSURE_SUM,
    SHIFT_SUM,
    STRICTLY_COPOSITIVE_ONLY,
)
from oracles import fm_feasible, random_matrix, random_p_matrix, random_psd, random_z_matrix


def members(a, variant):
    return exact_order(a, variant)


# ---------------------------------------------------------------------------
# membership with certificates


def test_identity_is_semimonotone():
    assert is_semimonotone(RatMatrix.identity(3)).member


def test_membership_failure_carries_first_witness():
    verdict = is_semimonotone(RatMatrix([[0, -1], [-2, 0]]))
    assert not verdict.member
    assert isinstance(verdict.witness, SupportWitness)
    assert verdict.witness.support.members == (1, 2)
    assert verdict.witness.vector == (F(1), F(1))


def test_exact_order_two_matrix_is_not_semimonotone():
    assert not is_semimonotone(M3_ORDER2_E0).member


def test_strict_membership():
    assert is_strictly_semimonotone(RatMatrix.identity(3)).member
    assert not is_strictly_semimonotone(RatMatrix([[0, 0], [0, 0]])).member
    assert not is_strictly_semimonotone(RatMatrix([[1, -2], [-2, 1]])).member


def test_witnesses_revalidate_by_substitution():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for variant, op in ((Variant.E0, is_semimonotone), (Variant.E, is_strictly_semimonotone)):
            verdict = op(m)
            if verdict.member:
                continue
            w = verdict.witness
            block = principal_submatrix(m, w.support)
            assert all(v > 0 for v in w.vector)
            image = block @ w.vector
            if variant is Variant.E0:
                assert all(x < 0 for x in image)
            else:
                assert all(x <= 0 for x in image)


# ---------------------------------------------------------------------------
# almost variants (literal two-part definition)


def test_almost_fixture_with_certificate():
    verdict = is_almost_semimonotone(RatMatrix([[0, -1], [-2, 0]]), Variant.E0)
    assert verdict.member
    x = verdict.witness.vector
    m = RatMatrix([[0, -1], [-2, 0]])
    assert all(v > 0 for v in x) and all(w <= 0 for w in m @ x)


def test_almost_strict_fixture():
    assert is_almost_semimonotone(RatMatrix([[1, -3], [-3, 1]]), Variant.E).member


def test_identity_not_almost():
    assert not is_almost_semimonotone(RatMatrix.identity(2), Variant.E0).member


def test_almost_requires_order_two():
    with pytest.raises(ValueError):
        is_almost_semimonotone(RatMatrix([[1]]))


def test_zero_matrix_is_literal_almost_but_also_semimonotone():
    # the literal definition does not exclude class members
    z = RatMatrix([[0, 0], [0, 0]])
    assert is_almost_semimonotone(z, Variant.E0).member
    assert is_semimonotone(z).member


def test_almost_2x2_characterization_against_exact_order():
    # closed form: E0 exact order 1 at n=2 means nonnegative diagonal,
    # negative off-diagonal, negative determinant (nonpositive for E with
    # positive diagonal)
    rng = random.Random(37)
    for _ in range(250):
        m = random_matrix(rng, 2, num_bound=4, den_bound=2)
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        closed_e0 = a >= 0 and d >= 0 and b < 0 and c < 0 and a * d - b * c < 0
        closed_e = a > 0 and d > 0 and b < 0 and c < 0 and a * d - b * c <= 0
        assert (exact_order(m, Variant.E0).k == 1) == closed_e0
        assert (exact_order(m, Variant.E).k == 1) == closed_e


# ---------------------------------------------------------------------------
# exact order


def test_exact_order_fixtures():
    assert exact_order(M3_ORDER2_E0, Variant.E0).k == 2
    assert exact_order(M3_ORDER2_E, Variant.E).k == 2
    assert exact_order(M4_ORDER3, Variant.E0).k == 3
    assert exact_order(M5_ORDER3, Variant.E0).k == 3
    assert exact_order(M4_ORDER2, Variant.E0).k == 2
    assert exact_order(M5_ORDER2, Variant.E0).k == 2
    assert exact_order(RatMatrix.identity(3), Variant.E0).k == 0


def test_exact_order_evidence_profile():
    result = exact_order(M3_ORDER2_E0, Variant.E0)
    assert result.evidence == (OrderStatus.ALL, OrderStatus.NONE, OrderStatus.NONE)


def test_sum_matrix_has_no_exact_order_with_mixed_level():
    result = exact_order(NONCLOSURE_SUM, Variant.E0)
    assert result.k is None
    assert result.evidence[1] is OrderStatus.MIXED


def test_shift_sum_rejected_from_exact_order_two():
    assert exact_order(SHIFT_SUM, Variant.E0).k != 2


def test_exact_order_k_equals_n():
    m = RatMatrix([[-1, 5], [5, -2]])
    assert exact_order(m, Variant.E0).k == 2  # every diagonal entry fails already


def test_exact_order_evidence_monotone():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant in (Variant.E0, Variant.E):
            ev = exact_order(m, variant).evidence
            seen_not_all = False
            seen_none = False
            for status in ev:
                if status is not OrderStatus.ALL:
                    seen_not_all = True
                if seen_not_all:
                    assert status is not OrderStatus.ALL
                if seen_none:
                    assert status is OrderStatus.NONE
                if status is OrderStatus.NONE:
                    seen_none = True


def test_has_exact_order_matches_full_classifier():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant in (Variant.E0, Variant.E):
            k_full = exact_order(m, variant).k
            for k in range(n + 1):
                assert has_exact_order(m, k, variant) == (k_full == k)


def witness_support(result):
    return None if result.witness is None else result.witness.support.members


def unpruned_sweep(a, variant):
    """Reference for the pruned sweep: Fourier-Motzkin on every support; a
    support fails when any of its subsets has a feasible system.  Returns
    the per-order evidence and the first feasible support."""
    supports = list(all_supports(a.order))
    feasible = [
        alpha.members
        for alpha in supports
        if fm_feasible(principal_submatrix(a, alpha), variant.failing_system).feasible
    ]
    evidence = []
    for size in range(1, a.order + 1):
        member = [
            not any(set(f) <= set(alpha.members) for f in feasible)
            for alpha in supports
            if len(alpha) == size
        ]
        if all(member):
            evidence.append(OrderStatus.ALL)
        elif any(member):
            evidence.append(OrderStatus.MIXED)
        else:
            evidence.append(OrderStatus.NONE)
    return tuple(evidence), feasible[0] if feasible else None


def test_pruned_sweep_matches_unpruned_reference():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant, member_test, copositive_test in (
            (Variant.E0, is_semimonotone, is_copositive),
            (Variant.E, is_strictly_semimonotone, is_strictly_copositive),
        ):
            evidence, first = unpruned_sweep(m, variant)
            result = exact_order(m, variant)
            assert result.evidence == evidence
            assert witness_support(result) == first
            assert witness_support(member_test(m)) == first
            _, first_symmetric = unpruned_sweep(m.symmetric_part(), variant)
            assert witness_support(copositive_test(m)) == first_symmetric
            almost = is_almost_semimonotone(m, variant)
            if first is not None and len(first) < n:
                assert not almost.member and witness_support(almost) == first
            else:
                assert almost.witness is None or len(almost.witness.support) == n


def test_witness_is_the_public_oracles_certificate():
    # off-diagonal entries near -1 and diagonal entries in [0, 5n/4]: the
    # first failing support has any size from 1 to 5, so its certificate
    # comes from the shortcuts, the order-2 closed form and the simplex
    rng = random.Random(61)
    sizes = Counter()
    for n in range(2, 7):
        for _ in range(10):
            m = RatMatrix(
                [
                    [F(rng.randint(0, 5 * n) if i == j else -rng.randint(3, 5), 4)
                     for j in range(n)]
                    for i in range(n)
                ]
            )
            for a in (m, m.symmetric_part()):
                for variant, oracle in (
                    (Variant.E0, feasible_strict),
                    (Variant.E, feasible_semistrict),
                ):
                    witness = exact_order(a, variant).witness
                    if witness is None:
                        continue
                    sizes[len(witness.support)] += 1
                    out = oracle(principal_submatrix(a, witness.support))
                    assert out.feasible and witness.vector == out.certificate
    assert {1, 2, 3, 4, 5} <= set(sizes)


def test_heredity_of_membership():
    rng = random.Random(47)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        if not is_semimonotone(m).member:
            continue
        checked += 1
        for alpha in all_supports(n):
            assert is_semimonotone(principal_submatrix(m, alpha)).member


def test_transpose_invariance():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant in (Variant.E0, Variant.E):
            assert exact_order(m, variant) == exact_order(m.transpose(), variant)


# ---------------------------------------------------------------------------
# sign-scan classes and minor classes


def test_z_and_nonnegative_scans():
    assert is_Z(RatMatrix([[0, -1], [-2, 0]]))
    assert not is_Z(M4_ORDER2_NONZ)
    assert is_Z(RatMatrix.identity(3))
    assert is_nonnegative(RatMatrix.identity(3))
    assert not is_nonnegative(M3_ORDER2_E0)


def test_p_and_p0_verdicts():
    assert is_P(RatMatrix.identity(3)).member
    assert is_P(RatMatrix([[11, -3], [-3, 1]])).member
    verdict = is_P0(RatMatrix([[0, -1], [-2, 0]]))
    assert not verdict.member
    assert verdict.witness.minor == -2
    assert verdict.witness.support.members == (1, 2)
    assert not is_P(RatMatrix([[0, 0], [0, 0]])).member
    assert is_P0(RatMatrix([[0, 0], [0, 0]])).member


def test_p_witness_minor_recomputes():
    rng = random.Random(59)
    for _ in range(40):
        m = random_matrix(rng, 3, num_bound=4, den_bound=2)
        verdict = is_P0(m)
        if not verdict.member:
            assert det(principal_submatrix(m, verdict.witness.support)) == verdict.witness.minor


# ---------------------------------------------------------------------------
# copositivity


def test_copositive_fixtures():
    assert is_strictly_copositive(RatMatrix.identity(3)).member
    assert not is_copositive(COPOSITIVE_ONLY).member
    assert not is_copositive(RatMatrix([[1, -3], [-3, 1]])).member


def test_copositive_witness_is_quadratic_form_violation():
    verdict = is_copositive(COPOSITIVE_ONLY)
    w = verdict.witness
    s = COPOSITIVE_ONLY.symmetric_part()
    block = principal_submatrix(s, w.support)
    value = sum(
        w.vector[i] * (block @ w.vector)[i] for i in range(len(w.vector))
    )
    assert value < 0


def test_copositive_exact_order_fixtures():
    assert copositive_exact_order(COPOSITIVE_ONLY, Variant.E0).k == 2
    assert exact_order(COPOSITIVE_ONLY, Variant.E0).k == 0
    assert copositive_exact_order(STRICTLY_COPOSITIVE_ONLY, Variant.E).k == 2
    assert exact_order(STRICTLY_COPOSITIVE_ONLY, Variant.E).k == 0
    assert copositive_exact_order(RatMatrix.identity(3), Variant.E0).k == 0


def test_class_inclusions():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(2, 4)
        nonneg = random_matrix(rng, n, num_bound=4, den_bound=2).symmetric_part()
        nonneg = RatMatrix([[abs(v) for v in row] for row in nonneg.entries])
        assert is_semimonotone(nonneg).member
        p = random_p_matrix(rng, n)
        assert is_P(p).member
        assert is_strictly_semimonotone(p).member
        psd = random_psd(rng, n)
        assert is_copositive(psd).member
        assert is_semimonotone(psd).member


def test_copositive_implies_semimonotone_for_general_matrices():
    rng = random.Random(67)
    for _ in range(60):
        m = random_matrix(rng, 3, num_bound=3, den_bound=2)
        if is_copositive(m).member:
            assert is_semimonotone(m).member


def test_z_matrices_semimonotone_iff_p0():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = random_z_matrix(rng, n)
        assert is_semimonotone(m).member == is_P0(m).member


# ---------------------------------------------------------------------------
# inverse-Z, 3x3 structure audit, negative entries


def test_inverse_z_fixtures():
    assert is_inverse_Z(M4_ORDER2_NONZ).member
    assert is_inverse_Z(RatMatrix.identity(3)).member
    assert is_inverse_Z(RatMatrix([[1, 1], [0, 1]])).member
    assert not is_inverse_Z(RatMatrix([[1, -1], [1, 1]])).member
    assert not is_inverse_Z(RatMatrix([[1, 2], [2, 4]])).member  # singular


# The 3x3 structure checks are computed inside the thm3.4 audit.


def conclusion(report, prefix):
    return next(c for c in report.conclusions if c.name.startswith(prefix))


def test_structure_report_fixture():
    report = audit_thm_3x3_structure(M3_ORDER2_E0, Variant.E0)
    assert report.ok
    assert conclusion(report, "diagonal").passed
    assert conclusion(report, "off-diagonal").passed
    minors = conclusion(report, "order-2 principal minors negative")
    assert minors.passed and minors.evidence == "minors = ['-2', '-3', '-4']"


def test_structure_report_identity_fails_pattern(monkeypatch):
    # No 3x3 matrix of exact order 2 breaks the pattern, so the audit is
    # told that the identity has exact order 2 to reach the failing checks.
    statuses = (OrderStatus.ALL, OrderStatus.NONE, OrderStatus.NONE)
    monkeypatch.setattr(verify, "exact_order", lambda a, v: ExactOrderResult(v, 2, statuses))
    report = audit_thm_3x3_structure(RatMatrix.identity(3), Variant.E0)
    assert conclusion(report, "diagonal").passed
    assert not conclusion(report, "off-diagonal").passed
    minors = conclusion(report, "order-2 principal minors negative")
    assert not minors.passed and minors.evidence == "minors = ['1', '1', '1']"
    assert report.counterexample == RatMatrix.identity(3)


def test_structure_report_strict_variant():
    report = audit_thm_3x3_structure(M3_ORDER2_E, Variant.E)
    assert report.ok
    assert conclusion(report, "diagonal entries > 0").passed
    assert conclusion(report, "off-diagonal").passed
    minors = conclusion(report, "order-2 principal minors nonpositive")
    assert minors.passed and minors.evidence == "minors = ['-3', '-3', '-3']"


def test_structure_report_wrong_order():
    with pytest.raises(WrongOrderError):
        audit_thm_3x3_structure(RatMatrix.identity(2))


def test_negative_entry_profile():
    profile = negative_entry_profile(M4_ORDER2_NONZ)
    assert profile.min_row >= 2 and profile.min_column >= 2
    assert negative_entry_profile(RatMatrix.identity(3)).row_counts == (0, 0, 0)
    small = negative_entry_profile(RatMatrix([[0, -1], [-2, 0]]))
    assert small.row_counts == (1, 1) and small.column_counts == (1, 1)


def test_nonclosure_ingredients_classify():
    assert exact_order(NONCLOSURE_A, Variant.E0).k == 2
    assert is_Z(NONCLOSURE_A)


def test_labels_are_stable_tags():
    assert ClassLabel.E0.value == "E0"
    assert is_semimonotone(RatMatrix.identity(2)).label is ClassLabel.E0
