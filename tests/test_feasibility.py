import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from semimono.classify import Variant
from semimono.feasibility import (
    FeasibilityOutcome,
    _minimal_feasible,
    _order2,
    _sign_test,
    _witness,
    feasible_semistrict,
    feasible_strict,
    phase1_feasible,
)
from semimono.ratcore import RatMatrix, _block, _gauss_jordan, _int_det, _support_members

from oracles import (
    FM_MAX_ORDER,
    PLANTED_KINDS,
    OrderTooLargeError,
    fm_feasible,
    planted_singular,
    random_matrix,
)

small_fraction = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def square(n):
    return st.lists(
        st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMatrix)


def assert_certificate(m: RatMatrix, outcome: FeasibilityOutcome, strict: bool):
    assert outcome.feasible and outcome.certificate is not None
    y = outcome.certificate
    assert all(v >= 1 for v in y)
    image = m @ y
    bound = F(-1) if strict else F(0)
    assert all(w <= bound for w in image)


def simplex_feasible(m: RatMatrix, strict: bool) -> bool:
    """Reference route: the simplex alone on the closed system
    u >= 0, Mu <= shift - row sums (u = y - 1), with no closed form or
    shortcut in front."""
    shift = F(-1) if strict else F(0)
    ok, _ = phase1_feasible(m.entries, [shift - sum(row, F(0)) for row in m.entries])
    return ok


# ---------------------------------------------------------------------------
# direct examples


def test_strict_order1():
    out = feasible_strict(RatMatrix([[-1]]))
    assert out.feasible and out.certificate == (F(1),)
    assert feasible_strict(RatMatrix([[F(-1, 7)]])).certificate == (F(7),)
    assert not feasible_strict(RatMatrix([[1]])).feasible
    assert not feasible_strict(RatMatrix([[0]])).feasible


def test_strict_order2_example():
    m = RatMatrix([[0, -1], [-2, 0]])
    out = feasible_strict(m)
    assert out.certificate == (F(1), F(1))
    assert_certificate(m, out, strict=True)


def test_order1_and_order2_sign_tests_match_the_witness_route():
    # The support sweep decides 1x1 blocks, and 2x2 blocks whose 1x1 blocks
    # pass, by signs alone, read in place from the rows: every such block
    # with entries in -3..3, for both strictnesses, integer rows against the
    # witness route on Fractions.  Each block is also embedded at members
    # (1, 3) and (2, 4) of 4x4 rows (1x1 blocks at member 3) whose other
    # entries are noise the decision must not read.
    values = range(-3, 4)
    noise = random.Random(10)

    def embedded(block, members):
        rows = [[noise.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        for bi, i in enumerate(members):
            for bj, j in enumerate(members):
                rows[i - 1][j - 1] = block[bi][bj]
        return rows

    checked = embedded_checked = 0
    for strict in (True, False):
        for a in values:
            expected = _witness([[F(a)]], strict) is not None
            assert _sign_test([[a]], (1,), strict) == expected
            assert _sign_test(embedded([[a]], (3,)), (3,), strict) == expected
        passing = [a for a in values if (a >= 0 if strict else a > 0)]
        for a11, a22 in itertools.product(passing, repeat=2):
            for a12, a21 in itertools.product(values, repeat=2):
                rows = [[a11, a12], [a21, a22]]
                expected = _order2([[F(v) for v in row] for row in rows], strict) is not None
                assert _sign_test(rows, (1, 2), strict) == expected
                checked += 1
                for members in ((1, 3), (2, 4)):
                    assert _sign_test(embedded(rows, members), members, strict) == expected
                    embedded_checked += 1
    assert checked == 16 * 49 + 9 * 49
    assert embedded_checked == 2 * checked


def test_semistrict_examples():
    assert feasible_semistrict(RatMatrix([[0]])).certificate == (F(1),)
    assert not feasible_semistrict(RatMatrix([[1]])).feasible
    m = RatMatrix([[1, -3], [-3, 1]])
    assert_certificate(m, feasible_semistrict(m), strict=False)


def test_strict_infeasible_zero_row():
    # a row with no negative entry can never be driven strictly negative
    assert not feasible_strict(RatMatrix([[0, 0], [-1, -1]])).feasible


def test_boundary_det_zero_is_strictly_infeasible_but_semistrict_feasible():
    m = RatMatrix([[1, -1], [-1, 1]])
    assert not feasible_strict(m).feasible
    assert_certificate(m, feasible_semistrict(m), strict=False)


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=60, deadline=None)
@given(square(3), st.builds(F, st.integers(1, 7), st.integers(1, 4)))
def test_scale_invariance(m, t):
    scaled = m * t
    assert feasible_strict(m).feasible == feasible_strict(scaled).feasible
    assert feasible_semistrict(m).feasible == feasible_semistrict(scaled).feasible


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_certificates_substitute_exactly(m):
    for strict, op in (
        (True, feasible_strict),
        (False, feasible_semistrict),
    ):
        out = op(m)
        if out.feasible:
            assert_certificate(m, out, strict)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_strict_implies_semistrict(m):
    if feasible_strict(m).feasible:
        assert feasible_semistrict(m).feasible


def test_closed_forms_match_simplex_for_small_orders():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 2)
        m = random_matrix(rng, n, num_bound=4, den_bound=3)
        for strict, op in (
            (True, feasible_strict),
            (False, feasible_semistrict),
        ):
            fast = op(m)
            assert fast.feasible == simplex_feasible(m, strict)
            if fast.feasible:
                assert_certificate(m, fast, strict)


def test_shortcuts_match_simplex_for_larger_orders():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(3, 5)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for strict, op in (
            (True, feasible_strict),
            (False, feasible_semistrict),
        ):
            assert op(m).feasible == simplex_feasible(m, strict)


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle


def test_fm_agrees_on_examples():
    assert fm_feasible(RatMatrix([[0, -1], [-2, 0]]), strict=True).feasible
    assert fm_feasible(RatMatrix([[0]]), strict=False).feasible
    assert not fm_feasible(RatMatrix([[1]]), strict=True).feasible


def test_fm_certificates_substitute_exactly():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for strict in (True, False):
            out = fm_feasible(m, strict)
            if out.feasible:
                assert_certificate(m, out, strict)


def test_fm_agreement_sweep():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=5, den_bound=3)
        assert (
            fm_feasible(m, strict=True).feasible
            == feasible_strict(m).feasible
        )
        assert (
            fm_feasible(m, strict=False).feasible
            == feasible_semistrict(m).feasible
        )


def test_fm_order_cap():
    big = RatMatrix.identity(FM_MAX_ORDER + 1)
    with pytest.raises(OrderTooLargeError):
        fm_feasible(big, strict=True)


# Systems whose ratio test ties, so Bland's tie-break picks the leaving row;
# the witnesses were frozen from rational pivoting with the same rule.
DEGENERATE_PHASE1 = [
    (
        [[-7, F(2, 3), F(-3, 2)], [-2, -3, -1], [-2, 0, -3]],
        [F(-9, 4), F(-3, 2), -5],
        [0, 0, F(5, 3)],
    ),
    (
        [
            [-5, F(-2, 3), 4, -4, F(5, 3)],
            [2, -3, F(2, 3), F(-2, 3), F(-7, 4)],
            [1, F(7, 3), F(-1, 2), -6, -2],
            [F(-5, 3), F(7, 2), -5, F(7, 4), F(4, 3)],
            [7, F(4, 3), 3, -3, 3],
        ],
        [-2, 1, 0, 8, 0],
        [0, F(9, 11), 0, F(4, 11), 0],
    ),
]


@pytest.mark.parametrize("g, h, witness", DEGENERATE_PHASE1)
def test_phase1_ties_follow_bland(g, h, witness):
    g = [[F(v) for v in row] for row in g]
    ok, x = phase1_feasible(g, [F(v) for v in h])
    assert ok and x == witness
    assert all(sum(a * xi for a, xi in zip(row, x)) <= hi for row, hi in zip(g, h))


# ---------------------------------------------------------------------------
# the search sweep's decision at minimal supports


def minimal_decisions(rows, variant):
    """(members, strict, fails) for every support of the integer ``rows``
    with no failing immediate sub-support, decided by
    ``_minimal_feasible``, in (size, lex) order.  A support with a failing
    sub-support fails by heredity and is not decided, so every decided
    support is minimal: these are the blocks the lemma speaks about."""
    strict = variant.strict_system
    failing = set()
    seen = []
    for members in _support_members(len(rows)):
        if any(members[:i] + members[i + 1:] in failing for i in range(len(members))):
            failing.add(members)
            continue
        fails = _minimal_feasible(rows, members, strict)
        seen.append((members, strict, fails))
        if fails:
            failing.add(members)
    return seen


def cross_check(rows, tally):
    """Every minimal support of order >= 3, both variants: the decision must
    match the simplex route and, up to order FM_MAX_ORDER, Fourier-Motzkin.
    ``tally`` counts the checked blocks by (order, strict, fails, kind),
    kind being "singular", "odd swaps" (``_gauss_jordan`` returns -p, the
    trap of reading the sign of the solution from its return value) or
    "plain"."""
    for variant in Variant:
        for members, strict, fails in minimal_decisions(rows, variant):
            order = len(members)
            if order < 3:
                continue
            block = _block(rows, members)
            assert (_witness([[F(v) for v in row] for row in block], strict) is not None) == fails
            if order <= FM_MAX_ORDER:
                assert fm_feasible(RatMatrix(block), strict).feasible == fails
            pivoted = [row[:] for row in block]
            det = _gauss_jordan(pivoted)
            kind = "singular" if det == 0 else "odd swaps" if det != pivoted[0][0] else "plain"
            tally[order, strict, fails, kind] += 1


def test_minimal_decision_matches_simplex_and_fourier_motzkin():
    rng = random.Random(113)
    tally = Counter()
    # Diagonal near the order, off-diagonal mostly negative: minimal supports
    # of every order 3..n, failing and passing alike.
    for n, count in ((3, 8), (4, 8), (5, 3), (6, 3)):
        for _ in range(count):
            rows = [
                [rng.randint(n - 3, n) if i == j else rng.choice((-2, -1, -1, -1, 0))
                 for j in range(n)]
                for i in range(n)
            ]
            cross_check(rows, tally)
    # The same with a zero in the corner, which makes the first pivot of
    # every block containing member 1 a row swap.  Row 1 is nonnegative but
    # for its last entry, and a_n1 >= 0, so that 2x2 blocks through member 1
    # pass and larger blocks are solved.
    for n in (4, 5):
        for _ in range(20):
            rows = [
                [rng.randint(n - 3, n) if i == j else rng.choice((-2, -1, -1, -1, 0))
                 for j in range(n)]
                for i in range(n)
            ]
            rows[0] = [0] + [rng.choice((0, 0, 1)) for _ in range(n - 2)] + [-rng.randint(1, 2)]
            rows[n - 1][0] = rng.randint(0, 1)
            cross_check(rows, tally)
    for n in (3, 4, 5, 6):
        for kind in PLANTED_KINDS:
            for _ in range(2):
                cross_check(planted_singular(rng, n, kind), tally)
        # D1 ((n-1) I - J) D2 with positive diagonal D1, D2: its proper
        # principal blocks are positive semidefinite, so E0 fails first on the
        # whole matrix and E on the singular blocks of order n - 1
        d1 = [rng.randint(1, 3) for _ in range(n)]
        d2 = [rng.randint(1, 3) for _ in range(n)]
        cross_check([[d1[i] * ((n - 1) * (i == j) - 1) * d2[j] for j in range(n)] for i in range(n)], tally)

    def total(**fixed):
        names = ("order", "strict", "fails", "kind")
        return sum(
            c for key, c in tally.items()
            if all(key[names.index(name)] == value for name, value in fixed.items())
        )

    for order in (3, 4, 5, 6):
        for strict in (True, False):
            assert total(order=order, strict=strict, fails=True) >= 1
            assert total(order=order, strict=strict, fails=False) >= 1
    # the order-3 closed form pivots nothing; the swaps that matter are above
    for fails in (True, False):
        assert sum(total(order=order, kind="odd swaps", fails=fails) for order in (4, 5)) >= 3
    # E blocks with a positive kernel fail, all other singular blocks pass
    assert total(kind="singular", strict=False, fails=True) >= 8
    assert total(kind="singular", strict=True, fails=False) >= 24
    assert total(kind="singular", strict=True, fails=True) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_planted_singular_blocks_are_minimal_and_decided_by_their_kernel(n):
    # each planted matrix is singular with every proper principal block in
    # E, so the sweep reaches the whole matrix: E fails it exactly when the
    # kernel is spanned by a positive vector, E0 never
    rng = random.Random(127 + n)
    for kind in PLANTED_KINDS:
        for _ in range(3):
            rows = planted_singular(rng, n, kind)
            assert _int_det([row[:] for row in rows]) == 0
            for variant in Variant:
                decisions = minimal_decisions(rows, variant)
                full = tuple(range(1, n + 1))
                assert [m for m, _, fails in decisions if fails] in ([], [full])
                assert decisions[-1][0] == full
                expected = variant is Variant.E and kind == "positive kernel"
                assert decisions[-1][2] == expected
