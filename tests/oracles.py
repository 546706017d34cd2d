"""Independent oracles and random generators for the test suite.

The determinant oracle is plain cofactor expansion, deliberately unrelated
to the fraction-free pivoting the package uses for det, inverse and the
simplex; it is capped at order 5 where its factorial cost is still instant.
The adjugate is built on it, so A adj(A) = det(A) I checks ``inverse``
against arithmetic it does not share.  Fourier-Motzkin elimination decides
linear systems by a route unrelated to the package's simplex.
"""

import random
from fractions import Fraction
from typing import Optional, Sequence

from semimono.feasibility import FeasibilityOutcome, Strictness
from semimono.ratcore import RatMatrix


def det_cofactor(a: RatMatrix) -> Fraction:
    n = a.order
    if n > 5:
        raise ValueError("cofactor oracle capped at order 5")
    if n == 1:
        return a[0, 0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = RatMatrix([[a[i, c] for c in range(n) if c != j] for i in range(1, n)])
        total += sign * a[0, j] * det_cofactor(minor)
        sign = -sign
    return total


def adjugate(a: RatMatrix) -> RatMatrix:
    """Transpose of the cofactor matrix, from cofactor determinants;
    A adj(A) = det(A) I holds for singular A too."""
    n = a.order
    if n == 1:
        return RatMatrix([[1]])

    def cofactor(i: int, j: int) -> Fraction:
        minor = RatMatrix([[a[r, c] for c in range(n) if c != j] for r in range(n) if r != i])
        return (-1) ** (i + j) * det_cofactor(minor)

    return RatMatrix([[cofactor(j, i) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

FM_MAX_ORDER = 5

_Row = tuple[tuple[Fraction, ...], Fraction]  # coeffs . y <= rhs


class OrderTooLargeError(ValueError):
    """Fourier-Motzkin refuses orders whose elimination blows up."""


def _canonical(rows: list[_Row]) -> tuple[list[_Row], bool]:
    """Deduplicate, keep tightest rhs per direction, detect 0 <= negative."""
    best: dict[tuple[Fraction, ...], Fraction] = {}
    contradiction = False
    for coeffs, rhs in rows:
        scale = next((abs(c) for c in coeffs if c != 0), None)
        if scale is None:
            if rhs < 0:
                contradiction = True
            continue
        key = tuple(c / scale for c in coeffs)
        val = rhs / scale
        if key not in best or val < best[key]:
            best[key] = val
    return [(k, v) for k, v in best.items()], contradiction


def _eliminate(rows: list[_Row], k: int) -> list[_Row]:
    keep: list[_Row] = []
    uppers: list[_Row] = []
    lowers: list[_Row] = []
    for coeffs, rhs in rows:
        c = coeffs[k]
        if c == 0:
            keep.append((coeffs, rhs))
        else:
            scaled = tuple(v / abs(c) for v in coeffs), rhs / abs(c)
            (uppers if c > 0 else lowers).append(scaled)
    for ucoeffs, urhs in uppers:
        for lcoeffs, lrhs in lowers:
            combo = tuple(u + l for u, l in zip(ucoeffs, lcoeffs))
            keep.append((combo, urhs + lrhs))
    return keep


def fm_point(
    g: Sequence[Sequence[Fraction]], h: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Is {y : Gy <= h} nonempty?  Some point of it, or None.

    Eliminates the last variable first, then back-substitutes from the
    first: each variable takes the midpoint of its bounds, its one bound
    when the other is missing, and 0 when it is unbounded.
    """
    nvars = len(g[0])
    rows: list[_Row] = [
        (tuple(Fraction(v) for v in row), Fraction(rhs)) for row, rhs in zip(g, h)
    ]
    stages: list[list[_Row]] = []
    for k in range(nvars - 1, -1, -1):
        rows, contradiction = _canonical(rows)
        if contradiction:
            return None
        stages.append(rows)
        rows = _eliminate(rows, k)
    if _canonical(rows)[1]:
        return None

    y: list[Fraction] = []
    for k in range(nvars):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for coeffs, rhs in stages[nvars - 1 - k]:
            c = coeffs[k]
            if c == 0:
                continue
            bound = (rhs - sum((coeffs[j] * y[j] for j in range(k)), Fraction(0))) / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None:
            lo = Fraction(0) if hi is None else hi
        if hi is not None and hi < lo:
            raise AssertionError("back-substitution broke; elimination is unsound")
        y.append(lo if hi is None else (lo + hi) / 2)
    return tuple(y)


def fm_feasible(m: RatMatrix, strictness: Strictness) -> FeasibilityOutcome:
    """Fourier-Motzkin decision of the closed sign system y >= 1 with
    My <= -1 (strict) or My <= 0 (semistrict).

    Restricted to order <= FM_MAX_ORDER: variable elimination is doubly
    exponential beyond desk scale.
    """
    m._require_square()
    n = m.order
    if n > FM_MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the Fourier-Motzkin cap {FM_MAX_ORDER}")
    shift = -1 if strictness is Strictness.STRICT else 0
    g = [[-1 if j == i else 0 for j in range(n)] for i in range(n)] + list(m.entries)
    y = fm_point(g, [-1] * n + [shift] * n)
    return FeasibilityOutcome(False) if y is None else FeasibilityOutcome(True, y)


def random_fraction(rng: random.Random, num_bound: int = 9, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_matrix(
    rng: random.Random, n: int, num_bound: int = 9, den_bound: int = 4
) -> RatMatrix:
    return RatMatrix(
        [[random_fraction(rng, num_bound, den_bound) for _ in range(n)] for _ in range(n)]
    )


def random_invertible(rng: random.Random, n: int, **kw) -> RatMatrix:
    from semimono.ratcore import det

    while True:
        m = random_matrix(rng, n, **kw)
        if det(m) != 0:
            return m


def random_z_matrix(
    rng: random.Random, n: int, num_bound: int = 5, den_bound: int = 3
) -> RatMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                num = rng.randint(-num_bound, num_bound)
            else:
                num = -rng.randint(0, num_bound)
            row.append(Fraction(num, rng.randint(1, den_bound)))
        rows.append(row)
    return RatMatrix(rows)


def random_symmetric(
    rng: random.Random, n: int, num_bound: int = 5, den_bound: int = 3
) -> RatMatrix:
    vals = {}
    for i in range(n):
        for j in range(i, n):
            vals[(i, j)] = random_fraction(rng, num_bound, den_bound)
    return RatMatrix(
        [[vals[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    )


def random_p_matrix(rng: random.Random, n: int) -> RatMatrix:
    """B^T B + I for a random rational B: positive definite, hence all
    principal minors positive."""
    b = random_matrix(rng, n, num_bound=3, den_bound=2)
    return (b.transpose() @ b) + RatMatrix.identity(n)


def random_psd(rng: random.Random, n: int) -> RatMatrix:
    """B^T B: positive semidefinite, hence copositive."""
    b = random_matrix(rng, n, num_bound=3, den_bound=2)
    return b.transpose() @ b
