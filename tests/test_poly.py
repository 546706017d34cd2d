from fractions import Fraction as F

import pytest

from semimono import poly


def p(*coeffs):
    return poly.normalize(F(c) for c in coeffs)


def mul(*polys):
    out = p(1)
    for q in polys:
        out = poly_mul(out, q)
    return out


def poly_mul(a, b):
    res = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] += ai * bj
    return poly.normalize(res)


def test_divmod_roundtrip():
    num = p(1, 0, -3, 2, 5)
    den = p(-1, 1, 1)
    q, r = poly.divmod_poly(num, den)
    assert poly.normalize([a + b for a, b in zip_pad(poly_mul(q, den), r)]) == num


def zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return zip(a, b)


def test_gcd_of_shared_factor():
    shared = p(1, 1)  # x + 1
    a = poly_mul(shared, p(-2, 1))
    b = poly_mul(shared, p(3, 1))
    assert poly.gcd(a, b) == p(1, 1)


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


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        poly.real_root_sign_counts(())
