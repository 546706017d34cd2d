"""Exact rational scalars, dense matrices, and the linear algebra the
classifiers are built on.

Every entry is a ``fractions.Fraction``; there is no floating point anywhere.
All class memberships downstream are strict sign conditions, so determinants,
inverses, Schur complements, and eigenvalue counts must be certified exactly.

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
    def zeros(cls, m: int, n: int) -> "RatMatrix":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def diagonal(cls, values: Iterable[Entry]) -> "RatMatrix":
        vals = [rat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, values: Iterable[Entry]) -> "RatMatrix":
        return cls([[v] for v in values])

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

    def row(self, i: int) -> RatVector:
        return self._entries[i]

    def col(self, j: int) -> RatVector:
        return tuple(row[j] for row in self._entries)

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


def _int_bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix.

    Intermediate entries stay integral; the exact divisions bound growth far
    better than naive elimination.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det(a: RatMatrix) -> Fraction:
    """Exact determinant via Bareiss elimination on a denominator-cleared copy."""
    a._require_square()
    n = a.order
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    scale = Fraction(1)
    rows: list[list[int]] = []
    for i in range(n):
        d = lcm(*(a[i, j].denominator for j in range(n)))
        scale *= d
        rows.append([int(a[i, j] * d) for j in range(n)])
    return Fraction(_int_bareiss_det(rows), 1) / scale


def adjugate(a: RatMatrix) -> RatMatrix:
    """Transpose of the cofactor matrix; satisfies A adj(A) = det(A) I exactly.

    Works for singular input too, which the identity still covers.
    """
    a._require_square()
    n = a.order
    if n == 1:
        return RatMatrix([[1]])
    cof = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = RatMatrix(
                [
                    [a[r, c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
            )
            cof[i][j] = det(minor) if (i + j) % 2 == 0 else -det(minor)
    return RatMatrix(cof).transpose()


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination.

    Raises :class:`SingularMatrixError` when det(A) = 0.
    """
    a._require_square()
    n = a.order
    work = [list(a.row(i)) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
    return RatMatrix([row[n:] for row in work])


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
    """
    comp = alpha.complement()
    block_inv = inverse(principal_submatrix(a, alpha))
    schur = schur_complement(a, alpha)
    schur_inv = inverse(schur)
    a_ab = submatrix(a, alpha, comp)
    a_ba = submatrix(a, comp, alpha)
    return block_inv + ((block_inv @ a_ab) @ schur_inv) @ (a_ba @ block_inv)


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(lambda I - A), exact coefficients.

    ``coefficients[k]`` is the coefficient of lambda^k, so
    ``coefficients[-1] == 1`` and ``coefficients[0] == (-1)^n det(A)``.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coefficients[k]

    def __call__(self, x: Entry) -> Fraction:
        return poly.evaluate(self.coefficients, rat(x))


def char_poly(a: RatMatrix) -> CharPoly:
    """Characteristic polynomial via the Faddeev-LeVerrier recurrence."""
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
    return CharPoly(tuple(coeffs))


def eigenvalue_sign_counts(a: RatMatrix) -> tuple[int, int, int]:
    """Counts of real characteristic roots in (-inf,0), {0}, (0,inf).

    Roots are counted with multiplicity, exactly, by Sturm sequences on the
    square-free layers of the characteristic polynomial.  Complex roots are
    the remainder up to n.
    """
    p = char_poly(a)
    return poly.real_root_sign_counts(p.coefficients)


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
