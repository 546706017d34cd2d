from fractions import Fraction as F

import pytest

from semimono import poly


def p(*coeffs):
    """A Fraction polynomial, ascending, with trailing zeros dropped."""
    out = [F(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def mul(*polys):
    out = p(1)
    for q in polys:
        out = poly_mul(out, q)
    return out


def poly_mul(a, b):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] += ai * bj
    while res and res[-1] == 0:
        res.pop()
    return tuple(res)


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_divmod_roundtrip():
    # pseudo-division: lc(den)^(deg num - deg den + 1) num = quot den + prem
    num = (1, 0, -3, 2, 5)
    den = (-1, 1, 3)
    rem = poly.pseudo_remainder(num, den)
    assert len(rem) < len(den)
    scaled = tuple(3 ** 3 * c for c in num)
    quot = poly.exact_quotient(poly_add(scaled, tuple(-c for c in rem)), den)
    assert poly_add(poly_mul(quot, den), rem) == scaled


def test_pseudo_remainder_keeps_the_power_when_a_step_cancels_nothing():
    # x^3 + 1 by -2x + 0: the x^2 step has nothing to cancel but still scales
    assert poly.pseudo_remainder((1, 0, 0, 1), (0, -2)) == ((-2) ** 3,)
    assert poly.pseudo_remainder((5, 1), (1, 1, 1)) == (5, 1)


def test_exact_quotient_rejects_a_non_divisor():
    with pytest.raises(ValueError):
        poly.exact_quotient((1, 0, 1), (1, 1))
    with pytest.raises(ValueError):
        poly.exact_quotient((1, 3), (1, 2))  # (3x + 1) / (2x + 1) is not integral


def test_gcd_of_shared_factor():
    shared = (1, 1)  # x + 1
    a = poly_mul(shared, (-2, 1))
    b = poly_mul(shared, (3, 1))
    assert poly.primitive_gcd(a, b) == (1, 1)
    # equal up to a positive constant, whatever the contents and signs
    assert poly.primitive_gcd(tuple(-6 * c for c in a), tuple(4 * c for c in b)) == (1, 1)
    assert poly.primitive_gcd((2, 4), (3, 5)) == (1,)


def test_primitive_is_positive_and_content_free():
    assert poly.primitive((6, -4, -2)) == (-3, 2, 1)
    assert poly.primitive((0, 7)) == (0, 1)
    assert poly.primitive(()) == ()


def test_root_counts_simple_factors():
    # (x - 1)(x + 2)(x + 3)
    q = mul(p(-1, 1), p(2, 1), p(3, 1))
    assert poly.real_root_sign_counts(q) == (2, 0, 1)


def test_root_counts_no_real_roots():
    assert poly.real_root_sign_counts(p(1, 0, 1)) == (0, 0, 0)


def test_root_counts_pure_zero_root():
    assert poly.real_root_sign_counts(p(0, 0, 0, 1)) == (0, 3, 0)


def test_root_counts_with_multiplicity():
    # (x + 1)^3
    q = mul(p(1, 1), p(1, 1), p(1, 1))
    assert poly.real_root_sign_counts(q) == (3, 0, 0)
    # (x + 1)^2 (x - 5)
    q = mul(p(1, 1), p(1, 1), p(-5, 1))
    assert poly.real_root_sign_counts(q) == (2, 0, 1)
    # x^2 (x - 1/2) (x + 7)^2
    q = mul(p(0, 1), p(0, 1), p(F(-1, 2), 1), p(7, 1), p(7, 1))
    assert poly.real_root_sign_counts(q) == (2, 2, 1)


def test_root_counts_mixed_complex():
    # (x^2 + 1)(x - 2)
    q = mul(p(1, 0, 1), p(-2, 1))
    assert poly.real_root_sign_counts(q) == (0, 0, 1)


def test_root_counts_degree_eight_large_coefficients():
    # -10^30/7 x (x + 1000003)^2 (x - 3/7)^3 (x^2 + 10^12 + 1): degree 8
    q = mul(
        p(F(-10**30, 7)),
        p(0, 1),
        p(1000003, 1),
        p(1000003, 1),
        p(F(-3, 7), 1),
        p(F(-3, 7), 1),
        p(F(-3, 7), 1),
        p(10**12 + 1, 0, 1),
    )
    assert len(q) == 9
    assert poly.real_root_sign_counts(q) == (2, 1, 3)
    # the same roots from integer coefficients
    cleared = tuple(c * 7**4 for c in q)
    assert all(c.denominator == 1 for c in cleared)
    assert poly.real_root_sign_counts(tuple(c.numerator for c in cleared)) == (2, 1, 3)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        poly.real_root_sign_counts(())
