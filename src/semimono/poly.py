"""Univariate integer polynomials: just enough for exact real root counting.

A polynomial is a tuple of ints in ascending degree order with no trailing
zero coefficient; the zero polynomial is the empty tuple.  Root counts use
Sturm chains on the layers p, gcd(p, p'), ..., so multiplicities are
recovered exactly and no numeric root finding is ever involved.

Sturm's theorem needs no square-free p: at a and b that are not roots, the
sign variations of p, p', -rem, ... differ by the number of distinct roots
of p in (a, b), since every term is a multiple of g = gcd(p, p') and
dividing by g(x) != 0 leaves a Sturm sequence of p / g (Basu, Pollack and
Roy, Algorithms in Real Algebraic Geometry, 2006, ch. 2).  The chain ends
at g times a constant, so made primitive its last term is the next layer.
In the integers, each term is -|lc|^(delta+1) times a remainder over its
positive content: a positive multiple of the rational Sturm polynomial, so
every sign, and with it every count, is the rational chain's.
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


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """p, p' and then -|lc|^(delta+1) prem over its positive content: each
    term a positive multiple of the rational Sturm polynomial."""
    chain = [p, derivative(p)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = pseudo_remainder(a, b)
        if not rem:
            break  # p has repeated roots: the chain ends at a multiple of gcd(p, p')
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


def _distinct_neg_pos_counts(chain: list[IntPoly]) -> tuple[int, int]:
    """Distinct roots in (-inf,0) and (0,inf) of the p that heads the Sturm
    ``chain``, read as sign variations at -inf, 0 and +inf; p(0) != 0."""
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
    contributes one distinct root to the first m layers.  One Sturm chain
    per layer L serves twice: its variations count L's distinct roots, and
    its last term, made primitive, is gcd(L, L'), the next layer.
    """
    p = _trim(coeffs)
    if not p:
        raise ValueError("zero polynomial has every number as a root")
    layer, zero_mult = _strip_zero_roots(primitive(p))
    negatives = 0
    positives = 0
    while len(layer) > 1:
        chain = sturm_chain(layer)
        n, q = _distinct_neg_pos_counts(chain)
        negatives += n
        positives += q
        layer = primitive(chain[-1])
    return negatives, zero_mult, positives
