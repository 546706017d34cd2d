"""Univariate polynomials over the rationals: just enough for exact real
root counting.

A polynomial is a tuple of Fractions in ascending degree order with no
trailing zero coefficient; the zero polynomial is the empty tuple.  Root
counts use Sturm sequences on square-free layers, so multiplicities are
recovered exactly and no numeric root finding is ever involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]


def normalize(coeffs: Iterable[Fraction]) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def leading(p: Poly) -> Fraction:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def scale(p: Poly, c: Fraction) -> Poly:
    return normalize(v * c for v in p)


def neg(p: Poly) -> Poly:
    return tuple(-v for v in p)


def derivative(p: Poly) -> Poly:
    return normalize(p[k] * k for k in range(1, len(p)))


def divmod_poly(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if is_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    dlead = leading(den)
    ddeg = degree(den)
    while len(rem) - 1 >= ddeg and any(v != 0 for v in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        rdeg = len(rem) - 1
        if rdeg < ddeg:
            break
        factor = rem[-1] / dlead
        shift = rdeg - ddeg
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    return normalize(quot), normalize(rem)


def monic(p: Poly) -> Poly:
    if is_zero(p):
        return p
    return scale(p, 1 / leading(p))


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic polynomial gcd via the Euclidean algorithm."""
    a, b = p, q
    while not is_zero(b):
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def strip_zero_roots(p: Poly) -> tuple[Poly, int]:
    """Factor x^m out of p; returns (p / x^m, m)."""
    if is_zero(p):
        raise ValueError("zero polynomial")
    m = 0
    while p[m] == 0:
        m += 1
    return p[m:], m


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, derivative(p)]
    while degree(chain[-1]) > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break  # callers pass square-free input; a zero remainder ends the chain
        chain.append(neg(rem))
    return chain


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at_minus_inf(p: Poly) -> int:
    return _sign(leading(p)) * (-1 if degree(p) % 2 else 1)


def _sign_at_plus_inf(p: Poly) -> int:
    return _sign(leading(p))


def _distinct_neg_pos_counts(p: Poly) -> tuple[int, int]:
    """Distinct roots of a square-free p with p(0) != 0 in (-inf,0) and (0,inf)."""
    if degree(p) <= 0:
        return 0, 0
    chain = sturm_chain(p)
    v_minus = _variations(_sign_at_minus_inf(q) for q in chain)
    v_zero = _variations(_sign(q[0]) if q else 0 for q in chain)
    v_plus = _variations(_sign_at_plus_inf(q) for q in chain)
    return v_minus - v_zero, v_zero - v_plus


def real_root_sign_counts(coeffs: Sequence[Fraction]) -> tuple[int, int, int]:
    """Real roots of a polynomial in (-inf,0), {0}, (0,inf), with multiplicity.

    Multiplicities come from the repeated-gcd chain p, gcd(p,p'), ...: a root
    of multiplicity m contributes one distinct root to the first m layers.
    One gcd per layer L serves twice: L / gcd(L, L') is the square-free part
    whose roots are counted, and gcd(L, L') is the next layer.
    """
    p = normalize(coeffs)
    if is_zero(p):
        raise ValueError("zero polynomial has every number as a root")
    _, zero_mult = strip_zero_roots(p)
    negatives = 0
    positives = 0
    layer = p
    while degree(layer) >= 1:
        below = gcd(layer, derivative(layer))
        distinct, _ = strip_zero_roots(divmod_poly(layer, below)[0])
        n, q = _distinct_neg_pos_counts(distinct)
        negatives += n
        positives += q
        layer = below
    return negatives, zero_mult, positives
