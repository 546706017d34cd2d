"""Univariate integer polynomials: just enough for exact real root counting.

A polynomial is a tuple of ints in ascending degree order with no trailing
zero coefficient; the zero polynomial is the empty tuple.  Root counts use
Sturm sequences on square-free layers, so multiplicities are recovered
exactly and no numeric root finding is ever involved.

Everything divides exactly in the integers.  The square-free layers come
from the primitive pseudo-remainder gcd (Collins 1967; Brown-Traub 1971),
normalized to a positive leading coefficient, and by Gauss's lemma a
primitive divisor over the rationals divides over the integers too.  The
Sturm chain takes -|lc|^(delta+1) times each remainder over its positive
content: a positive multiple of the rational Sturm polynomial, so every
sign, and with it every count, is the rational chain's.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

IntPoly = tuple[int, ...]


def _trim(coeffs: Iterable[int]) -> IntPoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def derivative(p: IntPoly) -> IntPoly:
    return _trim(p[k] * k for k in range(1, len(p)))


def primitive(p: IntPoly) -> IntPoly:
    """p over its content, signed to a positive leading coefficient."""
    if not p:
        return p
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return tuple(v // c for v in p)


def pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) a mod b, in the integers.

    Each of the deg a - deg b + 1 steps multiplies by lc(b) before it
    cancels the leading term, so the power is exact even where a step has
    nothing to cancel.  A dividend of lower degree comes back unchanged.
    """
    db = len(b) - 1
    lc = b[-1]
    r = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        r = [lc * v for v in r]
        if c:
            shift = top - db
            for i in range(db):
                r[shift + i] -= c * b[i]
    return _trim(r)


def exact_quotient(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for a b that divides a in the integers.

    A step that does not divide exactly leaves its remainder in place, so
    any nonzero remainder, in Z[x] or Q[x], raises ``ValueError``.
    """
    db = len(b) - 1
    lc = b[-1]
    r = list(a)
    quot = [0] * max(len(a) - db, 0)
    for shift in range(len(a) - 1 - db, -1, -1):
        q = quot[shift] = r[shift + db] // lc
        for i, bv in enumerate(b):
            r[shift + i] -= q * bv
    if any(r):
        raise ValueError("divisor does not divide the dividend in the integers")
    return _trim(quot)


def primitive_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd(a, b) by the primitive pseudo-remainder sequence: primitive, with
    a positive leading coefficient, so it is unique and divides both a and
    b in the integers."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))
    return a


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """p, p' and then -|lc|^(delta+1) prem over its positive content: each
    term a positive multiple of the rational Sturm polynomial."""
    chain = [p, derivative(p)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = pseudo_remainder(a, b)
        if not rem:
            break  # callers pass square-free input; a zero remainder ends the chain
        # prem = lc^(delta+1) rem; the factor's sign is that of lc^(delta+1)
        flip = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
        c = gcd(*rem)
        chain.append(tuple((v if flip else -v) // c for v in rem))
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


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _distinct_neg_pos_counts(p: IntPoly) -> tuple[int, int]:
    """Distinct roots of a square-free p with p(0) != 0 and degree >= 1 in
    (-inf,0) and (0,inf)."""
    chain = sturm_chain(p)
    v_minus = _variations(_sign(q[-1]) * (-1 if len(q) % 2 == 0 else 1) for q in chain)
    v_zero = _variations(_sign(q[0]) for q in chain)
    v_plus = _variations(_sign(q[-1]) for q in chain)
    return v_minus - v_zero, v_zero - v_plus


def _strip_zero_roots(p: IntPoly) -> tuple[IntPoly, int]:
    """Factor x^m out of a nonzero p; returns (p / x^m, m)."""
    m = 0
    while p[m] == 0:
        m += 1
    return p[m:], m


def real_root_sign_counts(coeffs: Sequence[int]) -> tuple[int, int, int]:
    """Real roots of a polynomial in (-inf,0), {0}, (0,inf), with multiplicity.

    The coefficients are ints, ascending.  Multiplicities come from the
    repeated-gcd chain p, gcd(p,p'), ...: a root of multiplicity m
    contributes one distinct root to the first m layers.  One gcd per layer
    L serves twice: L / gcd(L, L') is the square-free part whose roots are
    counted, and gcd(L, L') is the next layer.
    """
    p = _trim(coeffs)
    if not p:
        raise ValueError("zero polynomial has every number as a root")
    layer, zero_mult = _strip_zero_roots(primitive(p))
    negatives = 0
    positives = 0
    while len(layer) > 1:
        below = primitive_gcd(layer, derivative(layer))
        n, q = _distinct_neg_pos_counts(exact_quotient(layer, below))
        negatives += n
        positives += q
        layer = below
    return negatives, zero_mult, positives
