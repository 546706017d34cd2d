"""Independent oracles and random generators for the test suite.

The determinant oracle is plain cofactor expansion, deliberately unrelated
to the fraction-free pivoting the package uses for det, inverse and the
simplex; it is capped at order 6 where its factorial cost is still small.
The adjugate is built on it, so A adj(A) = det(A) I checks ``inverse``
against arithmetic it does not share.  Fourier-Motzkin elimination decides
linear systems by a route unrelated to the package's simplex.  The
partitioned inverse and the general Schur complement build principal-block
quantities from smaller inverses, where the package reads them from one
inverse of A and from determinants.  The characteristic polynomial oracle
is Faddeev-LeVerrier over Fraction matrices, and its root counts run
Euclid's algorithm and Sturm chains on Fraction polynomials, where the
package uses Berkowitz's division-free recurrence and integer
pseudo-remainders.  The candidate stream oracle draws every value with
``random.Random.randrange``, where the package reads bulk 32-bit generator
outputs.  The LCP support oracle hands every complementary support to
the phase-1 simplex, where the package solves each nonsingular block
fraction-free and keeps the LP for singular ones.
"""

import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from semimono.explore import EntrySign, GeneratorConfig
from semimono.feasibility import FeasibilityOutcome, phase1_feasible
from semimono.ratcore import (
    IndexSet,
    RatMatrix,
    RatVector,
    _berkowitz,
    _scalar_cleared,
    all_supports,
    inverse,
    principal_submatrix,
)


def det_cofactor(a: RatMatrix) -> Fraction:
    n = a.order
    if n > 6:
        raise ValueError("cofactor oracle capped at order 6")
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
# characteristic polynomial and real root counts over the rationals


def char_poly(a: RatMatrix) -> tuple[Fraction, ...]:
    """The package's route to det(lambda I - A), read back as A's own
    ascending coefficients: Berkowitz's recurrence runs on L A
    (``ratcore._scalar_cleared``), whose coefficient k is L^(n-k) times
    A's, and each is divided back."""
    n = a.order
    scale, rows = _scalar_cleared(a)
    return tuple(Fraction(c, scale ** (n - k)) for k, c in enumerate(_berkowitz(rows)))


def char_poly_leverrier(a: RatMatrix) -> tuple[Fraction, ...]:
    """Ascending coefficients of det(lambda I - A) by the Faddeev-LeVerrier
    recurrence: M_1 = I, c_(n-k) = -tr(A M_k) / k, M_(k+1) = A M_k + c_(n-k) I,
    on rows of Fractions."""
    n = a.order
    rows = a.entries
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        am = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in rows]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            am[i][i] += c
        m = am
    return tuple(coeffs)


def _trim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _rem(num: tuple[Fraction, ...], den: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Remainder of Fraction polynomial division."""
    rem = list(num)
    while len(rem) >= len(den):
        f = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        for i, c in enumerate(den):
            rem[shift + i] -= f * c
        rem = list(_trim(rem[:-1]))
    return tuple(rem)


def _quot(num: tuple[Fraction, ...], den: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Quotient of an exact Fraction polynomial division."""
    rem = list(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        f = rem[shift + len(den) - 1] / den[-1]
        quot[shift] = f
        for i, c in enumerate(den):
            rem[shift + i] -= f * c
    assert not any(rem), "division was not exact"
    return _trim(quot)


def _derivative(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return _trim(p[k] * k for k in range(1, len(p)))


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _monic_gcd(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    while q:
        p, q = q, _rem(p, q)
    return tuple(c / p[-1] for c in p)


def has_repeated_root(coeffs: Sequence[Fraction]) -> bool:
    """Does a nonzero polynomial share a root with its derivative?"""
    p = _trim(coeffs)
    return len(_monic_gcd(p, _derivative(p))) > 1


def real_root_sign_counts_fraction(coeffs: Sequence[Fraction]) -> tuple[int, int, int]:
    """Real roots in (-inf,0), {0}, (0,inf) with multiplicity, from Sturm
    chains of remainders over the rationals on the square-free layers of
    the monic-gcd chain p, gcd(p, p'), ..."""
    p = _trim(coeffs)
    if not p:
        raise ValueError("zero polynomial")
    zeros = next(i for i, c in enumerate(p) if c != 0)
    layer = p[zeros:]
    negatives = positives = 0
    while len(layer) > 1:
        below = _monic_gcd(layer, _derivative(layer))
        distinct = _quot(layer, below)
        chain = [distinct, _derivative(distinct)]
        while len(chain[-1]) > 1:
            r = _rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(tuple(-c for c in r))
        v_zero = _sign_changes(q[0] for q in chain)
        negatives += _sign_changes(q[-1] * (-1) ** (len(q) - 1) for q in chain) - v_zero
        positives += v_zero - _sign_changes(q[-1] for q in chain)
        layer = below
    return negatives, zeros, positives


# ---------------------------------------------------------------------------
# partitioned formulas over a principal block alpha and its complement beta


def complement(alpha: IndexSet) -> IndexSet:
    return IndexSet(alpha.universe, tuple(i for i in range(1, alpha.universe + 1) if i not in alpha))


def submatrix(a: RatMatrix, row_set: IndexSet, col_set: IndexSet) -> list[list[Fraction]]:
    """General A_{alpha,beta} block of a square matrix, as plain rows."""
    if len(row_set) == 0 or len(col_set) == 0:
        raise ValueError("index sets must be nonempty")
    return [[a[i, j] for j in col_set.zero_based()] for i in row_set.zero_based()]


def _times(x: Sequence[Sequence[Fraction]], y: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The product of two blocks given as rows, of any conforming shapes."""
    columns = list(zip(*y))
    return [[sum((p * q for p, q in zip(row, col)), Fraction(0)) for col in columns] for row in x]


def schur_complement(a: RatMatrix, alpha: IndexSet) -> RatMatrix:
    """A/A_aa = A_bb - A_ba A_aa^{-1} A_ab for a proper nonempty alpha.

    Raises SingularMatrixError when A_aa is singular.
    """
    beta = complement(alpha)
    if len(beta) == 0:
        raise ValueError("alpha must be a proper subset")
    block_inv = inverse(principal_submatrix(a, alpha)).entries
    correction = _times(_times(submatrix(a, beta, alpha), block_inv), submatrix(a, alpha, beta))
    a_bb = submatrix(a, beta, beta)
    return RatMatrix([[u - v for u, v in zip(ru, rv)] for ru, rv in zip(a_bb, correction)])


def block_inverse_principal(a: RatMatrix, alpha: IndexSet) -> RatMatrix:
    """The alpha-principal block of A^{-1} by the partitioned formula

        A_aa^{-1} + A_aa^{-1} A_ab (A/A_aa)^{-1} A_ba A_aa^{-1}.

    Raises SingularMatrixError when A_aa or A/A_aa is singular; the latter
    happens exactly when A is.
    """
    beta = complement(alpha)
    schur_inv = inverse(schur_complement(a, alpha)).entries
    block_inv = inverse(principal_submatrix(a, alpha)).entries
    left = _times(submatrix(a, beta, alpha), block_inv)  # A_ba A_aa^{-1}
    correction = _times(_times(_times(block_inv, submatrix(a, alpha, beta)), schur_inv), left)
    return RatMatrix([[u + v for u, v in zip(ru, rv)] for ru, rv in zip(block_inv, correction)])


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


def fm_feasible(m: RatMatrix, strict: bool) -> FeasibilityOutcome:
    """Fourier-Motzkin decision of the closed sign system y >= 1 with
    My <= -1 (strict) or My <= 0 (semistrict).

    Restricted to order <= FM_MAX_ORDER: variable elimination is doubly
    exponential beyond desk scale.
    """
    n = m.order
    if n > FM_MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the Fourier-Motzkin cap {FM_MAX_ORDER}")
    shift = -1 if strict else 0
    g = [[-1 if j == i else 0 for j in range(n)] for i in range(n)] + list(m.entries)
    y = fm_point(g, [-1] * n + [shift] * n)
    return FeasibilityOutcome(False) if y is None else FeasibilityOutcome(True, y)


# ---------------------------------------------------------------------------
# LCP supports, one LP each


def lcp_support_solutions_lp(inst) -> Iterator[tuple[RatVector, IndexSet]]:
    """One solution z per complementary support of an ``LcpInstance`` that
    has one, with the support, in (size, lex) order, every nonempty support
    decided by ``phase1_feasible``: z_a >= 0 with A_aa z_a <= -q_a and
    -A_ia z_a <= q_i for every i; z outside alpha is zero."""
    n = inst.order
    zero = Fraction(0)
    if all(qi >= 0 for qi in inst.q):
        yield tuple([zero] * n), IndexSet.empty(n)
    rows = inst.a.entries
    for alpha in all_supports(n):
        idx = alpha.zero_based()
        a_alpha = [[row[j] for j in idx] for row in rows]
        g = [a_alpha[i] for i in idx] + [[-v for v in row] for row in a_alpha]
        h = [-inst.q[i] for i in idx] + list(inst.q)
        ok, z_alpha = phase1_feasible(g, h)
        if not ok:
            continue
        z = [zero] * n
        for i, v in zip(idx, z_alpha):
            z[i] = v
        yield tuple(z), alpha


def draws_randrange(cfg: GeneratorConfig) -> Iterator[list[list[tuple[int, int]]]]:
    """The explorer's candidate stream, each value drawn by ``randrange``:
    per entry a FREE sign class from ``randrange(wn + wz + wp)``, then the
    numerator magnitude, then, for a nonzero numerator, its denominator."""
    neg, pos, zero, nonneg, free = (
        EntrySign.NEG, EntrySign.POS, EntrySign.ZERO, EntrySign.NONNEG, EntrySign.FREE
    )
    randrange = random.Random(cfg.seed).randrange
    db = cfg.denominator_bound
    wn, wz, wp = cfg.free_weights
    nb_off = cfg.numerator_bound
    nb_diag = nb_off if cfg.diagonal_numerator_bound is None else cfg.diagonal_numerator_bound
    cells = [
        [(sign, nb_diag if i == j else nb_off) for j, sign in enumerate(signs)]
        for i, signs in enumerate(cfg.template)
    ]
    for _ in range(cfg.max_attempts):
        rows = []
        for cell_row in cells:
            row = []
            for sign, nb in cell_row:
                if sign is free:
                    r = randrange(wn + wz + wp)
                    sign = neg if r < wn else zero if r < wn + wz else pos
                if sign is zero:
                    num = 0
                elif sign is neg:
                    num = -1 - randrange(nb)
                elif sign is pos:
                    num = 1 + randrange(nb)
                elif sign is nonneg:
                    num = randrange(nb + 1)
                else:  # NONPOS
                    num = -randrange(nb + 1)
                row.append((num, 1 + randrange(db)) if num else (0, 1))
            rows.append(row)
        yield rows


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


def _gram_kernel(v: Sequence[Sequence[int]]) -> list[int]:
    """The generalized cross product of the n-1 rows of v: the cofactors
    (-1)^j det(v without column j), by cofactor expansion.  It spans the
    kernel of v when v has rank n - 1, and is 0 otherwise."""
    n = len(v) + 1
    return [
        (-1) ** j * det_cofactor(RatMatrix([row[:j] + row[j + 1:] for row in v]))
        for j in range(n)
    ]


PLANTED_KINDS = ("positive kernel", "mixed kernel", "rank <= n-2")


def planted_singular(rng: random.Random, n: int, kind: str) -> list[list[int]]:
    """A singular integer matrix D1 V^T V D2 of order n >= 3 (D1, D2
    positive diagonal), one of ``PLANTED_KINDS``.

    With V of shape (n-1) x n and a kernel vector k with no zero entry,
    every proper principal block of V^T V is positive definite, hence in
    E, and the whole matrix has rank n - 1 and kernel D2^{-1} span(k),
    positive or of mixed signs as asked.  With V of shape (n-2) x n and a
    positive first row, no nonzero y >= 0 has V y = 0, so every principal
    block is strictly copositive, hence in E, while the rank is at most
    n - 2.  Positive diagonal scalings change neither class membership nor
    the signs of kernel vectors.
    """
    if kind == "rank <= n-2":
        v = [[rng.randint(1, 3) for _ in range(n)]]
        v += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 3)]
    else:
        while True:
            v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            k = _gram_kernel(v)
            if all(k):
                break
        # flip columns of v, which flips the matching kernel entries
        flips = [1 if kj > 0 else -1 for kj in k]
        if kind == "mixed kernel":
            flips[rng.randrange(n)] *= -1
        v = [[x * s for x, s in zip(row, flips)] for row in v]
    d1 = [rng.randint(1, 3) for _ in range(n)]
    d2 = [rng.randint(1, 3) for _ in range(n)]
    return [
        [d1[i] * sum(row[i] * row[j] for row in v) * d2[j] for j in range(n)]
        for i in range(n)
    ]
