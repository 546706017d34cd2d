import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from semimono.feasibility import (
    FeasibilityOutcome,
    Strictness,
    feasible_semistrict,
    feasible_strict,
    phase1_feasible,
)
from semimono.ratcore import RatMatrix

from oracles import FM_MAX_ORDER, OrderTooLargeError, fm_feasible, random_matrix

small_fraction = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def square(n):
    return st.lists(
        st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMatrix)


def assert_certificate(m: RatMatrix, outcome: FeasibilityOutcome, strictness: Strictness):
    assert outcome.feasible and outcome.certificate is not None
    y = outcome.certificate
    assert all(v >= 1 for v in y)
    image = m @ y
    bound = F(-1) if strictness is Strictness.STRICT else F(0)
    assert all(w <= bound for w in image)


def simplex_feasible(m: RatMatrix, strictness: Strictness) -> bool:
    """Reference route: the simplex alone on the closed system
    u >= 0, Mu <= shift - row sums (u = y - 1), with no closed form or
    shortcut in front."""
    shift = F(-1) if strictness is Strictness.STRICT else F(0)
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
    assert_certificate(m, out, Strictness.STRICT)


def test_semistrict_examples():
    assert feasible_semistrict(RatMatrix([[0]])).certificate == (F(1),)
    assert not feasible_semistrict(RatMatrix([[1]])).feasible
    m = RatMatrix([[1, -3], [-3, 1]])
    assert_certificate(m, feasible_semistrict(m), Strictness.SEMISTRICT)


def test_strict_infeasible_zero_row():
    # a row with no negative entry can never be driven strictly negative
    assert not feasible_strict(RatMatrix([[0, 0], [-1, -1]])).feasible


def test_boundary_det_zero_is_strictly_infeasible_but_semistrict_feasible():
    m = RatMatrix([[1, -1], [-1, 1]])
    assert not feasible_strict(m).feasible
    assert_certificate(m, feasible_semistrict(m), Strictness.SEMISTRICT)


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
    for strictness, op in (
        (Strictness.STRICT, feasible_strict),
        (Strictness.SEMISTRICT, feasible_semistrict),
    ):
        out = op(m)
        if out.feasible:
            assert_certificate(m, out, strictness)


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
        for strictness, op in (
            (Strictness.STRICT, feasible_strict),
            (Strictness.SEMISTRICT, feasible_semistrict),
        ):
            fast = op(m)
            assert fast.feasible == simplex_feasible(m, strictness)
            if fast.feasible:
                assert_certificate(m, fast, strictness)


def test_shortcuts_match_simplex_for_larger_orders():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(3, 5)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for strictness, op in (
            (Strictness.STRICT, feasible_strict),
            (Strictness.SEMISTRICT, feasible_semistrict),
        ):
            assert op(m).feasible == simplex_feasible(m, strictness)


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle


def test_fm_agrees_on_examples():
    assert fm_feasible(RatMatrix([[0, -1], [-2, 0]]), Strictness.STRICT).feasible
    assert fm_feasible(RatMatrix([[0]]), Strictness.SEMISTRICT).feasible
    assert not fm_feasible(RatMatrix([[1]]), Strictness.STRICT).feasible


def test_fm_certificates_substitute_exactly():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for strictness in (Strictness.STRICT, Strictness.SEMISTRICT):
            out = fm_feasible(m, strictness)
            if out.feasible:
                assert_certificate(m, out, strictness)


def test_fm_agreement_sweep():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=5, den_bound=3)
        assert (
            fm_feasible(m, Strictness.STRICT).feasible
            == feasible_strict(m).feasible
        )
        assert (
            fm_feasible(m, Strictness.SEMISTRICT).feasible
            == feasible_semistrict(m).feasible
        )


def test_fm_order_cap():
    big = RatMatrix.identity(FM_MAX_ORDER + 1)
    with pytest.raises(OrderTooLargeError):
        fm_feasible(big, Strictness.STRICT)


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
