"""Exact rational scalars, square matrices, and the linear algebra the
classifiers are built on.

Every matrix is n x n (``RatMatrix`` refuses any other shape), and every
entry is a ``fractions.Fraction``; there is no floating point anywhere.
All class memberships downstream are strict sign conditions, so determinants,
inverses and eigenvalue counts must be certified exactly.
Determinants, inverses and the feasibility simplex all eliminate through one
fraction-free integer pivot step, ``_pivot``, on denominator-cleared copies.
There is no second elimination route: callers read det A and A^{-1}, or
None for a singular A, from one ``_det_and_inverse(A)``.

Two clearings serve the integer routes, each described at its function:
the row-cleared D A of ``_cleared_rows``, which keeps exact order and the
sign of every principal minor (the searches, ``det``, the inverse and
``_principal_minors`` read it), and the scalar-cleared L A of
``_scalar_cleared``, which keeps the spectrum too: the eigenvalue counts
run Berkowitz's recurrence on it and hand ``poly`` integer coefficients,
and ``lcp`` factors its blocks on it, so that one cleared q serves them
all.

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from . import poly

RatVector = tuple[Fraction, ...]

Entry = Union[Fraction, int, str]


class SingularMatrixError(ZeroDivisionError):
    """Raised when an inverse of a singular matrix is requested."""


def _token_fault(token: str, alphabet: str) -> Optional[str]:
    """What breaks the rule every exact token follows, or None: ASCII only,
    with ``alphabet`` saying which characters (``int`` and ``Fraction`` read
    any Unicode digit), and no '_' (which they read as a digit separator)."""
    if not token.isascii():
        return f"is not ASCII; {alphabet}"
    if "_" in token:
        return "has a digit separator '_', which is not allowed"
    return None


def rat(value: Entry) -> Fraction:
    """Coerce an int, Fraction, or integer or ``p/q`` string to an exact
    rational.

    Float-looking inputs are rejected: exactness is the whole point.  A
    string must follow ``_token_fault``'s rule, and any fault, a zero
    denominator included, raises ValueError.  A Fraction is immutable, so
    one is returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point input is not accepted; use Fraction or 'p/q'")
    if isinstance(value, str):
        fault = _token_fault(value, "only 0-9, '-', '+' and '/' are allowed")
        if value.isascii() and any(ch in value for ch in ".eE"):
            fault = "is not an exact rational (floats are rejected)"
        if fault is not None:
            raise ValueError(f"token {value!r} {fault}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational token {value!r} ({exc})") from exc
    return Fraction(value)


def ratvec(values: Iterable[Entry]) -> RatVector:
    return tuple(rat(v) for v in values)


@dataclass(frozen=True)
class IndexSet:
    """A subset alpha of {1..n} addressing principal submatrices.

    Indices are 1-based to match the usual mathematical convention; use
    :meth:`zero_based` when slicing Python containers.  The empty set is
    representable (the LCP enumerator needs it) but operations that require
    a nonempty alpha reject it.
    """

    universe: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.universe < 1:
            raise ValueError("universe size must be >= 1")
        prev = 0
        for i in self.members:
            if not (1 <= i <= self.universe):
                raise ValueError(f"index {i} out of range 1..{self.universe}")
            if i <= prev:
                raise ValueError("members must be strictly increasing")
            prev = i

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def empty(cls, n: int) -> "IndexSet":
        return cls(n, ())

    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"


def _support_members(n: int) -> Iterator[tuple[int, ...]]:
    """The members of every nonempty subset of {1..n} in (size, lex) order."""
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


_T = TypeVar("_T")


def _block(rows: Sequence[Sequence[_T]], members: tuple[int, ...]) -> list[list[_T]]:
    """The principal block of square rows on the 1-based ``members``, as
    fresh lists."""
    picked = [rows[i - 1] for i in members]
    return [[row[j - 1] for j in members] for row in picked]


class RatMatrix:
    """Square matrix of exact rationals; immutable and hashable.

    Every class, exact order, minor, inverse and LCP here is defined on an
    n x n matrix, so the constructor refuses any other shape and ``order``
    is the one size.
    """

    __slots__ = ("_entries", "_n")

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        entries = tuple(tuple(rat(v) for v in row) for row in rows)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            lengths = sorted({len(row) for row in entries})
            raise ValueError(f"matrix must be square and nonempty, got {n} rows of lengths {lengths}")
        self._entries = entries
        self._n = n

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Iterable[Entry]) -> "RatMatrix":
        vals = [rat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def order(self) -> int:
        return self._n

    rows = order  # the row count, read by the benchmark's order buckets

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._entries[i][j]

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._entries

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self._entries))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_order(other)
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._entries, other._entries)
            ]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self._entries])

    def __mul__(self, scalar: Entry) -> "RatMatrix":
        c = rat(scalar)
        return RatMatrix([[a * c for a in row] for row in self._entries])

    __rmul__ = __mul__

    def __matmul__(self, other: Union["RatMatrix", Sequence[Entry]]) -> Union["RatMatrix", RatVector]:
        if isinstance(other, RatMatrix):
            self._same_order(other)
            columns = other.transpose()._entries
            return RatMatrix(
                [
                    [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in columns]
                    for row in self._entries
                ]
            )
        vec = ratvec(other)
        if len(vec) != self._n:
            raise ValueError("vector length does not match")
        return tuple(sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in self._entries)

    def _same_order(self, other: "RatMatrix") -> None:
        if self._n != other._n:
            raise ValueError(f"order mismatch: {self._n} and {other._n}")

    def is_symmetric(self) -> bool:
        return self._entries == tuple(zip(*self._entries))

    def symmetric_part(self) -> "RatMatrix":
        """(A + A^T)/2, built once; a symmetric matrix is its own symmetric
        part and comes back as it is."""
        columns = tuple(zip(*self._entries))
        if self._entries == columns:
            return self
        half = Fraction(1, 2)
        return RatMatrix(
            [[(a + b) * half for a, b in zip(row, col)] for row, col in zip(self._entries, columns)]
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self._entries)
        return f"RatMatrix[{body}]"

    def __str__(self) -> str:
        text = [[str(v) for v in row] for row in self._entries]
        widths = [max(len(row[j]) for row in text) for j in range(self._n)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in text
        )


def principal_submatrix(a: RatMatrix, alpha: IndexSet) -> RatMatrix:
    """Rows and columns of A restricted to alpha, order kept."""
    if alpha.universe != a.order:
        raise ValueError("index set universe does not match matrix order")
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    idx = alpha.zero_based()
    return RatMatrix([[a[i, j] for j in idx] for i in idx])


def _cleared(values: Iterable[Fraction], scale: int) -> list[int]:
    """The integers scale * v; scale must be a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _cleared_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """The row-cleared integer matrix D A of rational rows, and D: each row
    times the LCM of its denominators.

    D is positive, so every sign condition of exact order and the sign of
    every principal minor are those of A: (D A)_aa = D_a A_aa.  Minors,
    det and the inverse pivot D A, not the one scalar L A of
    ``_scalar_cleared``, because L carries every row's denominators: on
    rows over distinct primes at n = 5..8 (2-core Xeon, CPython 3.11), all
    principal minors read from L A took 1.06-1.27x and the inverse
    1.29-1.64x as long.
    """
    scales: list[int] = []
    out: list[list[int]] = []
    for row in rows:
        d = lcm(*[v.denominator for v in row])
        scales.append(d)
        out.append(_cleared(row, d))
    return scales, out


def _pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on an integer array, in place.

    Every row i != r becomes (p * row_i - row_i[c] * row_r) // prev with
    p = rows[r][c] and prev the previous pivot (1 before the first step).
    By Sylvester's identity the division is exact, and afterwards the array
    is p times what rational Gauss-Jordan with the same pivots leaves.
    Returns p.
    """
    row_r = rows[r]
    p = row_r[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * v - f * w) // prev for v, w in zip(row, row_r)]
    return p


def _gauss_jordan(rows: list[list[int]]) -> int:
    """Fraction-free pivots, in place, down the diagonal of an integer array
    with one row per column of its square left part; a lower row is swapped
    in where a pivot is 0.

    Returns the determinant of the left part, which is 0 when it is singular
    (the rows are then left part-way).  A full pass leaves the last pivot p
    on the whole diagonal, so [D A | D] becomes p [I | A^{-1}].
    """
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        prev = _pivot(rows, k, k, prev)
    return sign * prev


def _failed_pass_kernel(rows: Sequence[Sequence[int]]) -> list[int]:
    """A nonzero x with B x = 0, for the square left part B of an array on
    which ``_gauss_jordan`` has returned 0.

    The pass stopped at the first column k with no pivot: columns 0..k-1
    hold the last pivot p on the diagonal and 0 elsewhere, and column k is
    0 from row k down.  So x = (-rows[0][k], ..., -rows[k-1][k], p, 0, ...,
    0), or e_0 when k = 0, is in the kernel of the left part as the pass
    left it.  That is ker B: each step swaps two rows or replaces a row by
    a nonzero multiple of itself plus a multiple of another, and so is
    invertible.
    """
    n = len(rows)
    k = next(i for i, row in enumerate(rows) if row[i] == 0)
    p = rows[0][0] if k else 1
    return [-rows[i][k] for i in range(k)] + [p] + [0] * (n - 1 - k)


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer array: closed forms for orders 1 and
    2, fraction-free pivots (in place) above."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return _gauss_jordan(rows)


def _principal_minors(a: RatMatrix) -> Callable[[tuple[int, ...]], Fraction]:
    """det A_aa for the 1-based members of alpha, each read from one
    row-cleared D A (``_cleared_rows``): (D A)_aa = D_a A_aa, so
    det A_aa = det (D A)_aa / prod(D_a).  On all n members it is det A."""
    scales, rows = _cleared_rows(a.entries)
    return lambda key: Fraction(_int_det(_block(rows, key)), prod(scales[i - 1] for i in key))


def det(a: RatMatrix) -> Fraction:
    """Exact determinant: that of the row-cleared integer matrix D A, over
    the product of D."""
    scales, rows = _cleared_rows(a.entries)
    return Fraction(_int_det(rows), prod(scales))


def _det_and_inverse(a: RatMatrix) -> tuple[Fraction, Optional[RatMatrix]]:
    """det A and A^{-1} (None when det A = 0) from one pass: fraction-free
    pivots turn [D A | D], with D the row denominator LCMs, into
    p [I | A^{-1}] and return det (D A); the right block is divided by the
    last pivot p once, and det (D A) by the product of D."""
    n = a.order
    scales, rows = _cleared_rows(a.entries)
    for i, d in enumerate(scales):
        rows[i] += [d if j == i else 0 for j in range(n)]
    det_da = _gauss_jordan(rows)
    if det_da == 0:
        return Fraction(0), None
    p = rows[0][0]
    return Fraction(det_da, prod(scales)), RatMatrix([[Fraction(v, p) for v in row[n:]] for row in rows])


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse, from ``_det_and_inverse``.

    Raises :class:`SingularMatrixError` when det(A) = 0.
    """
    inv = _det_and_inverse(a)[1]
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return inv


def _scalar_cleared(a: RatMatrix) -> tuple[int, list[list[int]]]:
    """The integer matrix L A and L, the LCM of all of A's denominators.

    One positive scalar, never the row scaling D of ``_cleared_rows``: that
    keeps signs and exact order but moves the spectrum, while the roots of
    L A are those of A times L, with their signs and multiplicities.
    """
    scale = lcm(*(v.denominator for row in a.entries for v in row))
    return scale, [_cleared(row, scale) for row in a.entries]


def _berkowitz(rows: Sequence[Sequence[int]]) -> list[int]:
    """Ascending coefficients of det(x I - B) for a square integer array B,
    by Berkowitz's division-free recurrence (Berkowitz 1984).

    B = [[a, r], [c, B1]] has char poly T p1, with p1 that of B1 and T the
    lower-triangular Toeplitz matrix of the column 1, -a, -r c, -r B1 c,
    ..., -r B1^(m-1) c (m the order of B1), so the trailing blocks are
    folded in from the last diagonal entry up.  Only products and sums of
    integers are formed.
    """
    n = len(rows)
    desc = [1, -rows[n - 1][n - 1]]  # descending coefficients of the trailing block
    for k in range(n - 2, -1, -1):
        r = rows[k][k + 1:]
        tail = [row[k + 1:] for row in rows[k + 1:]]
        v = [row[k] for row in rows[k + 1:]]
        col = [1, -rows[k][k]]
        for j in range(n - k - 1):
            col.append(-sum(x * y for x, y in zip(r, v)))
            if j < n - k - 2:
                v = [sum(x * y for x, y in zip(row, v)) for row in tail]
        desc = [
            sum(col[i - j] * desc[j] for j in range(min(i + 1, len(desc))))
            for i in range(len(desc) + 1)
        ]
    return desc[::-1]


def eigenvalue_sign_counts(a: RatMatrix) -> tuple[int, int, int]:
    """Counts of real characteristic roots in (-inf,0), {0}, (0,inf).

    Roots are counted with multiplicity, exactly, by one Sturm chain per
    layer p, gcd(p, p'), ... of the integer characteristic polynomial p of
    L A (``_scalar_cleared``), whose roots are L > 0 times A's.  Complex
    roots are the remainder up to n.
    """
    return poly.real_root_sign_counts(_berkowitz(_scalar_cleared(a)[1]))


def count_negative_eigenvalues(a: RatMatrix) -> int:
    """Number of eigenvalues in (-inf, 0), with multiplicity, exact.

    Zero eigenvalues are never included; the boundary is open at 0.
    """
    return eigenvalue_sign_counts(a)[0]


def is_irreducible(a: RatMatrix) -> bool:
    """True iff the digraph with an edge i->j whenever a_ij != 0 (i != j)
    is strongly connected.  Order-1 matrices are irreducible by convention."""
    n = a.order
    if n == 1:
        return True
    reach = [[i == j or a[i, j] != 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                row_k = reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return all(all(row) for row in reach)


def permutation_similarity(a: RatMatrix, sigma: Sequence[int]) -> RatMatrix:
    """P A P^T for the permutation matrix P with P e_i = e_{sigma(i)}.

    ``sigma`` is 0-based: entry (i, j) of A moves to (sigma[i], sigma[j]).
    """
    n = a.order
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of 0..n-1")
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = a[i, j]
    return RatMatrix(out)
