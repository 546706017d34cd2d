"""Exact rational scalars, dense matrices, and the linear algebra the
classifiers are built on.

Every entry is a ``fractions.Fraction``; there is no floating point anywhere.
All class memberships downstream are strict sign conditions, so determinants,
inverses, Schur complements, and eigenvalue counts must be certified exactly.
Determinants, inverses and the feasibility simplex all eliminate through one
fraction-free integer pivot step, ``_pivot``, on denominator-cleared copies.

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from . import poly

RatVector = tuple[Fraction, ...]

Entry = Union[Fraction, int, str]


class SingularMatrixError(ZeroDivisionError):
    """Raised when an inverse of a singular matrix is requested."""


class SingularBlockError(SingularMatrixError):
    """Raised when a Schur complement is taken over a singular block."""


def rat(value: Entry) -> Fraction:
    """Coerce an int, ``p/q`` string, or Fraction to an exact rational.

    Float-looking inputs are rejected: exactness is the whole point.  A
    Fraction is immutable, so one is returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point input is not accepted; use Fraction or 'p/q'")
    if isinstance(value, str) and ("." in value or "e" in value or "E" in value):
        raise ValueError(f"not an exact rational token: {value!r}")
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
    def of(cls, universe: int, members: Iterable[int]) -> "IndexSet":
        return cls(universe, tuple(sorted(set(members))))

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def empty(cls, n: int) -> "IndexSet":
        return cls(n, ())

    def complement(self) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(self.universe, tuple(i for i in range(1, self.universe + 1) if i not in inside))

    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"


def all_supports(n: int) -> Iterator[IndexSet]:
    """All nonempty subsets of {1..n} in deterministic (size, lex) order."""
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            yield IndexSet(n, combo)


class RatMatrix:
    """Dense matrix of exact rationals; immutable and hashable."""

    __slots__ = ("_entries", "_m", "_n")

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        entries = tuple(tuple(rat(v) for v in row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        n = len(entries[0])
        for row in entries:
            if len(row) != n:
                raise ValueError("ragged rows")
        self._entries = entries
        self._m = len(entries)
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
    def rows(self) -> int:
        return self._m

    @property
    def cols(self) -> int:
        return self._n

    @property
    def is_square(self) -> bool:
        return self._m == self._n

    @property
    def order(self) -> int:
        self._require_square()
        return self._n

    def _require_square(self) -> None:
        if self._m != self._n:
            raise ValueError(f"operation requires a square matrix, got {self._m}x{self._n}")

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._entries[i][j]

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._entries

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self._entries))

    def trace(self) -> Fraction:
        self._require_square()
        return sum((self._entries[i][i] for i in range(self._n)), Fraction(0))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._entries, other._entries)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
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
            if self._n != other._m:
                raise ValueError("inner dimensions do not match")
            cols = other.transpose()._entries
            return RatMatrix(
                [
                    [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
                    for row in self._entries
                ]
            )
        vec = ratvec(other)
        if len(vec) != self._n:
            raise ValueError("vector length does not match")
        return tuple(sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in self._entries)

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if (self._m, self._n) != (other._m, other._n):
            raise ValueError("shape mismatch")

    def is_symmetric(self) -> bool:
        return self.is_square and self._entries == self.transpose()._entries

    def symmetric_part(self) -> "RatMatrix":
        self._require_square()
        return (self + self.transpose()) * Fraction(1, 2)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self._m == other._m
            and self._n == other._n
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self._m, self._n, self._entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self._entries)
        return f"RatMatrix[{body}]"

    def __str__(self) -> str:
        text = [[str(v) for v in row] for row in self._entries]
        widths = [max(len(text[i][j]) for i in range(self._m)) for j in range(self._n)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in text
        )


def principal_submatrix(a: RatMatrix, alpha: IndexSet) -> RatMatrix:
    """Rows and columns of a square matrix restricted to alpha, order kept."""
    a._require_square()
    if alpha.universe != a.order:
        raise ValueError("index set universe does not match matrix order")
    if len(alpha) == 0:
        raise ValueError("alpha must be nonempty")
    idx = alpha.zero_based()
    return RatMatrix([[a[i, j] for j in idx] for i in idx])


def submatrix(a: RatMatrix, row_set: IndexSet, col_set: IndexSet) -> RatMatrix:
    """General A_{alpha,beta} block of a square matrix."""
    a._require_square()
    if row_set.universe != a.order or col_set.universe != a.order:
        raise ValueError("index set universe does not match matrix order")
    if len(row_set) == 0 or len(col_set) == 0:
        raise ValueError("index sets must be nonempty")
    ri = row_set.zero_based()
    ci = col_set.zero_based()
    return RatMatrix([[a[i, j] for j in ci] for i in ri])


def _cleared(values: Iterable[Fraction], scale: int) -> list[int]:
    """The integers scale * v; scale must be a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


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


def _gauss_jordan(a: RatMatrix, augment: bool) -> tuple[list[list[int]], Fraction]:
    """Fraction-free pivots down the diagonal of D A, or of [D A | D] when
    ``augment``, with D the row denominator LCMs; a lower row is swapped in
    where a pivot is 0.

    Returns the integer rows and det(A), which is 0 when A is singular (the
    rows are then left part-way).  A full pass leaves the last pivot p on the
    whole diagonal, so the right block of [D A | D] is then p A^{-1}.
    """
    n = a.order
    rows: list[list[int]] = []
    scale = 1
    for i, row in enumerate(a.entries):
        d = lcm(*(v.denominator for v in row))
        scale *= d
        rows.append(_cleared(row, d))
        if augment:
            rows[i] += [d if j == i else 0 for j in range(n)]
    sign = 1
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if swap is None:
                return rows, Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        prev = _pivot(rows, k, k, prev)
    return rows, Fraction(sign * prev, scale)


def det(a: RatMatrix) -> Fraction:
    """Exact determinant by fraction-free pivots on the denominator-cleared
    integer copy D A; closed forms for orders 1 and 2."""
    a._require_square()
    n = a.order
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return _gauss_jordan(a, augment=False)[1]


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse: fraction-free pivots turn [D A | D], with D the row
    denominator LCMs, into p [I | A^{-1}]; the right block is divided by the
    last pivot p once.

    Raises :class:`SingularMatrixError` when det(A) = 0.
    """
    a._require_square()
    n = a.order
    rows, d = _gauss_jordan(a, augment=True)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    p = rows[0][0]
    return RatMatrix([[Fraction(v, p) for v in row[n:]] for row in rows])


def schur_complement(a: RatMatrix, alpha: IndexSet) -> RatMatrix:
    """A/A_aa = A_bb - A_ba A_aa^{-1} A_ab for b the complement of alpha.

    Raises :class:`SingularBlockError` when det(A_aa) = 0, and requires a
    nonempty complement.
    """
    a._require_square()
    comp = alpha.complement()
    if len(comp) == 0:
        raise ValueError("alpha must be a proper subset")
    try:
        block_inv = inverse(principal_submatrix(a, alpha))
    except SingularMatrixError as exc:
        raise SingularBlockError(f"A_{alpha} is singular") from exc
    a_bb = principal_submatrix(a, comp)
    a_ba = submatrix(a, comp, alpha)
    a_ab = submatrix(a, alpha, comp)
    return a_bb - (a_ba @ block_inv) @ a_ab


def block_inverse_principal(a: RatMatrix, alpha: IndexSet) -> RatMatrix:
    """The alpha-principal block of A^{-1} computed by the partitioned formula

        A_aa^{-1} + A_aa^{-1} A_ab (A/A_aa)^{-1} A_ba A_aa^{-1}.

    Requires both A_aa and the Schur complement A/A_aa to be nonsingular.
    The result equals principal_submatrix(inverse(A), alpha); the direct
    formula is exposed because some conjecture checks are stated against it.
    A_aa is inverted once and serves both terms and the Schur complement.
    """
    comp = alpha.complement()
    block_inv = inverse(principal_submatrix(a, alpha))
    if len(comp) == 0:
        raise ValueError("alpha must be a proper subset")
    a_ab = submatrix(a, alpha, comp)
    left = submatrix(a, comp, alpha) @ block_inv  # A_ba A_aa^{-1}
    schur_inv = inverse(principal_submatrix(a, comp) - left @ a_ab)
    return block_inv + ((block_inv @ a_ab) @ schur_inv) @ left


def char_poly(a: RatMatrix) -> tuple[Fraction, ...]:
    """Coefficients of the monic characteristic polynomial det(lambda I - A)
    via the Faddeev-LeVerrier recurrence: entry k is the coefficient of
    lambda^k, so the last is 1 and the first is (-1)^n det(A)."""
    a._require_square()
    n = a.order
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = RatMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() / k
        coeffs[n - k] = c
        if k < n:
            m = am + RatMatrix.identity(n) * c
    return tuple(coeffs)


def eigenvalue_sign_counts(a: RatMatrix) -> tuple[int, int, int]:
    """Counts of real characteristic roots in (-inf,0), {0}, (0,inf).

    Roots are counted with multiplicity, exactly, by Sturm sequences on the
    square-free layers of the characteristic polynomial.  Complex roots are
    the remainder up to n.
    """
    return poly.real_root_sign_counts(char_poly(a))


def count_negative_eigenvalues(a: RatMatrix) -> int:
    """Number of eigenvalues in (-inf, 0), with multiplicity, exact.

    Zero eigenvalues are never included; the boundary is open at 0.
    """
    return eigenvalue_sign_counts(a)[0]


def is_irreducible(a: RatMatrix) -> bool:
    """True iff the digraph with an edge i->j whenever a_ij != 0 (i != j)
    is strongly connected.  Order-1 matrices are irreducible by convention."""
    a._require_square()
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
    a._require_square()
    n = a.order
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of 0..n-1")
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = a[i, j]
    return RatMatrix(out)
