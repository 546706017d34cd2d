"""Decision procedures for the matrix classes in the semimonotonicity
hierarchy, with machine-checkable certificates.

The central reduction: a square matrix A fails to be semimonotone exactly
when some nonempty support alpha admits y > 0 with A_aa y < 0 (pad y with
zeros to recover the failing x), and fails to be strictly semimonotone when
some support admits y > 0 with A_aa y <= 0.  One lazy sweep, ``_sweep``,
decides the 2^n - 1 supports with a decision it is handed, in a fixed
(size, lex) order, skipping any support whose sub-support already fails
(membership is hereditary), so every support it solves is minimal.  It
walks the rows of the matrix itself: 1x1 and 2x2 supports are sign tests on
entries in place.  The memoized exact-order profile sweeps the Fraction
rows of A with ``feasibility._feasible`` (shortcuts and the simplex above
order 2), drains the sweep and computes and normalizes the certificate of
the first failing support only, the one support it takes a
``principal_submatrix`` of; the semimonotone, copositive and almost
verdicts read that witness off the profile.  ``has_exact_order``, the
explorer's filter, sweeps the row-cleared integer matrix D A, whose
supports fail exactly where A's do ((D A)_aa = D_a A_aa with D_a
positive), with ``feasibility._minimal_feasible``, which decides a minimal
block by the sign of -B^{-1} 1 and calls no simplex; it stops early and
reads no witness at all.  The two decisions share no code above order 2,
so the searches' ``exact_order`` re-check of a hit is a second route.

All procedures are pure; the fixed order makes the first witness
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, Union

from .feasibility import (
    Strictness,
    _AnyRows,
    _feasible,
    _minimal_feasible,
    _normalize_certificate,
    _witness,
    feasible_semistrict,
    feasible_strict,
)
from .ratcore import (
    IndexSet,
    RatMatrix,
    RatVector,
    SingularMatrixError,
    _integer_rows,
    _support_members,
    all_supports,
    det,
    inverse,
    principal_submatrix,
)


class WrongOrderError(ValueError):
    """An operation fixed to one matrix order was fed another."""


class Variant(Enum):
    """Which flavor of semimonotonicity a test refers to."""

    E0 = "E0"  # semimonotone
    E = "E"    # strictly semimonotone

    @property
    def failing_system(self) -> Strictness:
        # E0 fails through a strict system, E through a semistrict one.
        return Strictness.STRICT if self is Variant.E0 else Strictness.SEMISTRICT


class OrderStatus(Enum):
    ALL = "all"
    NONE = "none"
    MIXED = "mixed"


class ClassLabel(Enum):
    E0 = "E0"
    E = "E"
    ALMOST_E0 = "almost E0"
    ALMOST_E = "almost E"
    Z = "Z"
    NONNEGATIVE = "nonnegative"
    P0 = "P0"
    P = "P"
    COPOSITIVE = "copositive"
    STRICTLY_COPOSITIVE = "strictly copositive"
    INVERSE_Z = "inverse Z"


@dataclass(frozen=True)
class SupportWitness:
    """A support alpha and a vector y > 0 with A_aa y < 0 (or <= 0)."""

    support: IndexSet
    vector: RatVector


@dataclass(frozen=True)
class MinorWitness:
    """A principal index set whose minor violates a sign requirement."""

    support: IndexSet
    minor: Fraction


@dataclass(frozen=True)
class ClassVerdict:
    label: ClassLabel
    member: bool
    # written in place: a module-level Union alias would sit in typing's
    # process-wide cache and keep this module alive after a re-import
    witness: Optional[Union[SupportWitness, MinorWitness]] = None


@dataclass(frozen=True)
class ExactOrderResult:
    """Outcome of the exact-order classification.

    ``k`` is the exact order when one exists, else None (the definition does
    not partition all matrices).  ``evidence[m-1]`` records whether ALL,
    NONE, or a MIXED set of the order-m principal submatrices belong to the
    class; heredity forces the ALL region to be a prefix and the NONE region
    a suffix of the orders.  ``witness`` is the first failing support in
    (size, lex) order with its certificate, or None when A itself belongs;
    it is left out of equality, so two results compare by (variant, k,
    evidence) alone.
    """

    variant: Variant
    k: Optional[int]
    evidence: tuple[OrderStatus, ...]
    witness: Optional[SupportWitness] = field(default=None, compare=False)

    @property
    def has_exact_order(self) -> bool:
        return self.k is not None

    def describe(self) -> str:
        if self.k is None:
            profile = ",".join(s.value for s in self.evidence)
            return f"no exact order ({self.variant.value}; per-order profile {profile})"
        return f"{self.variant.value} exact order {self.k}"


_Members = tuple[int, ...]


_Decision = Callable[[_AnyRows, _Members, bool], Union[bool, RatVector]]


def _sweep(
    rows: _AnyRows, variant: Variant, decide: _Decision
) -> Iterator[tuple[_Members, Union[bool, RatVector]]]:
    """The one support sweep: the members of every support of the square
    ``rows`` in (size, lex) order, and whether it fails.  ``decide(rows,
    members, strict)`` solves a support's system; whatever truthy value it
    returns for a failing support (``_feasible``'s raw witness above order
    2) is yielded in place of True.

    The rows may be rational or the row-cleared integer ones: D_a A_aa y
    has the signs of A_aa y.  Membership is hereditary, so a support with a
    failing sub-support fails too, and its system is never solved; a solved
    support is therefore minimal, with no failing proper sub-support.  The
    order-2 sign test relies on its passing 1x1 blocks, and
    ``_minimal_feasible`` on all of them.  The sweep only decides; a caller
    that reports a certificate normalizes the raw witness, or computes one
    for a support of order 1 or 2.  It is lazy: callers stop as soon as
    they know their answer.
    """
    strict = variant.failing_system is Strictness.STRICT
    failing: set[_Members] = set()
    for key in _support_members(len(rows)):
        if failing and any(key[:i] + key[i + 1:] in failing for i in range(len(key))):
            failing.add(key)
            yield key, True
            continue
        fails = decide(rows, key, strict)
        if fails:
            failing.add(key)
        yield key, fails


# One classify call or audit reuses at most a few dozen (matrix, variant)
# keys, and nothing reuses one across CLI calls, so a small cache keeps every
# hit without holding hundreds of dead matrices.
@lru_cache(maxsize=64)
def exact_order(a: RatMatrix, variant: Variant) -> ExactOrderResult:
    """Full per-order membership profile and the exact order k, if any.

    A has exact order k when every order-(n-k) principal submatrix is in the
    class and no larger one is.  k = 0 means A itself belongs; k = n is
    reported when already the order-1 submatrices all fail (the order-0
    requirement is vacuous).  The result also keeps the first failing
    support and its certificate, from which the membership verdicts read
    their witness.
    """
    n = a.order
    members_per_order: list[list[bool]] = [[] for _ in range(n)]
    witness: Optional[SupportWitness] = None
    for key, failing in _sweep(a.entries, variant, _feasible):
        if failing and witness is None:
            # the first failing support was solved, so it has a witness: the
            # sweep's own above order 2, a closed form or shortcut below
            alpha = IndexSet(n, key)
            rows = principal_submatrix(a, alpha).entries
            strict = variant.failing_system is Strictness.STRICT
            y = _witness(rows, strict) if failing is True else failing
            assert y is not None
            witness = SupportWitness(alpha, _normalize_certificate(rows, y, strict))
        members_per_order[len(key) - 1].append(not failing)

    statuses = tuple(
        OrderStatus.ALL if all(members) else OrderStatus.MIXED if any(members) else OrderStatus.NONE
        for members in members_per_order
    )
    all_prefix = next((m for m, s in enumerate(statuses) if s is not OrderStatus.ALL), n)
    k = n - all_prefix if all(s is OrderStatus.NONE for s in statuses[all_prefix:]) else None
    return ExactOrderResult(variant, k, statuses, witness)


def _swept_verdict(a: RatMatrix, variant: Variant, label: ClassLabel) -> ClassVerdict:
    witness = exact_order(a, variant).witness
    return ClassVerdict(label, witness is None, witness)


def is_semimonotone(a: RatMatrix) -> ClassVerdict:
    """Semimonotone: every nonzero x >= 0 has an index i with x_i > 0 and
    (Ax)_i >= 0.  A negative verdict carries the first failing support and
    its certifying y."""
    return _swept_verdict(a, Variant.E0, ClassLabel.E0)


def is_strictly_semimonotone(a: RatMatrix) -> ClassVerdict:
    """Same with (Ax)_i > 0 demanded at the witnessing index."""
    return _swept_verdict(a, Variant.E, ClassLabel.E)


def has_exact_order(a: RatMatrix, k: int, variant: Variant) -> bool:
    """Early-exit test for one specific exact order (the explorer's filter).

    Equivalent to ``exact_order(a, variant).k == k``: the orders up to n-k
    must show no failing support, and every support of size n-k+1 must fail
    (heredity settles all larger orders).  The sweep runs on the row-cleared
    integer matrix D A with ``_minimal_feasible``, solves no LP and reads no
    witness.
    """
    a._require_square()
    return _has_exact_order(_integer_rows(a)[1], k, variant)


def _has_exact_order(rows: Sequence[Sequence[int]], k: int, variant: Variant) -> bool:
    """``has_exact_order`` on row-cleared integer rows."""
    n = len(rows)
    if not 0 <= k <= n:
        raise ValueError(f"exact order must lie in 0..{n}")
    for key, failing in _sweep(rows, variant, _minimal_feasible):
        size = len(key)
        if size > n - k + 1:
            break
        if bool(failing) != (size == n - k + 1):
            return False
    return True


def is_almost_semimonotone(a: RatMatrix, variant: Variant = Variant.E0) -> ClassVerdict:
    """All proper principal submatrices in the class, and some x > 0 with
    Ax <= 0 (variant E0) or Ax < 0 (variant E).

    This is the literal two-part definition; it is related to, but not
    interchangeable with, "exact order 1" (use :func:`exact_order` for
    that predicate).  A negative verdict carries the first failing proper
    support when there is one; a positive verdict carries the certifying x
    on the full support.
    """
    n = a.order
    if n < 2:
        raise ValueError("almost-class tests need order >= 2")
    label = ClassLabel.ALMOST_E0 if variant is Variant.E0 else ClassLabel.ALMOST_E
    witness = exact_order(a, variant).witness
    if witness is not None and len(witness.support) < n:
        return ClassVerdict(label, False, witness)
    full = feasible_semistrict(a) if variant is Variant.E0 else feasible_strict(a)
    if not full.feasible:
        return ClassVerdict(label, False)
    assert full.certificate is not None
    return ClassVerdict(label, True, SupportWitness(IndexSet.full(n), full.certificate))


def is_Z(a: RatMatrix) -> bool:
    """All off-diagonal entries nonpositive."""
    a._require_square()
    n = a.order
    return all(a[i, j] <= 0 for i in range(n) for j in range(n) if i != j)


def is_nonnegative(a: RatMatrix) -> bool:
    return all(v >= 0 for row in a.entries for v in row)


def _minor_verdict(a: RatMatrix, strict: bool) -> ClassVerdict:
    a._require_square()
    label = ClassLabel.P if strict else ClassLabel.P0
    for alpha in all_supports(a.order):
        minor = det(principal_submatrix(a, alpha))
        if minor < 0 or (strict and minor == 0):
            return ClassVerdict(label, False, MinorWitness(alpha, minor))
    return ClassVerdict(label, True)


def _minor_breaks(
    n: int, minor: Callable[[_Members], Union[Fraction, int]]
) -> Iterator[tuple[IndexSet, Union[Fraction, int]]]:
    """The supports of sizes below n whose ``minor`` (given the members)
    breaks the minor condition of Theorem 4.11, with that minor, in (size,
    lex) order; only the minors' signs are tested."""
    for key in _support_members(n):
        size = len(key)
        if size == n:
            return
        m = minor(key)
        if size <= n - 2 and m < 0 or size == n - 1 and m >= 0:
            yield IndexSet(n, key), m


def z_exact_two_minor_breaks(a: RatMatrix) -> Iterator[tuple[IndexSet, Fraction]]:
    """The principal minors that break the minor condition of Theorem 4.11
    (a Z-matrix has E0 exact order 2 iff its minors of order <= n-2 are
    nonnegative and those of order n-1 negative), yielded lazily as
    (alpha, minor) in (size, lex) order."""
    n = a.order
    yield from _minor_breaks(n, lambda key: det(principal_submatrix(a, IndexSet(n, key))))


def is_P0(a: RatMatrix) -> ClassVerdict:
    """All 2^n - 1 principal minors nonnegative, checked exactly."""
    return _minor_verdict(a, strict=False)


def is_P(a: RatMatrix) -> ClassVerdict:
    """All principal minors strictly positive."""
    return _minor_verdict(a, strict=True)


def is_copositive(a: RatMatrix) -> ClassVerdict:
    """x^T A x >= 0 for all x >= 0.

    Decided through the symmetric part S = (A + A^T)/2, whose quadratic form
    is identical, and the fact that for symmetric matrices copositivity
    coincides with semimonotonicity.  A failure witness (alpha, y) gives a
    nonnegative x (y padded with zeros) with x^T A x < 0.
    """
    return _swept_verdict(a.symmetric_part(), Variant.E0, ClassLabel.COPOSITIVE)


def is_strictly_copositive(a: RatMatrix) -> ClassVerdict:
    """x^T A x > 0 for all nonzero x >= 0, via the strict test on the
    symmetric part."""
    return _swept_verdict(a.symmetric_part(), Variant.E, ClassLabel.STRICTLY_COPOSITIVE)


def copositive_exact_order(a: RatMatrix, variant: Variant) -> ExactOrderResult:
    """Exact-order profile with (strict) copositivity as the membership test.

    Symmetrization commutes with taking principal submatrices, so this is
    the semimonotone profile of the symmetric part.
    """
    return exact_order(a.symmetric_part(), variant)


def is_inverse_Z(a: RatMatrix) -> ClassVerdict:
    """Nonsingular with a Z-matrix inverse."""
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return ClassVerdict(ClassLabel.INVERSE_Z, False)
    return ClassVerdict(ClassLabel.INVERSE_Z, is_Z(inv))


@dataclass(frozen=True)
class NegativeEntryProfile:
    row_counts: tuple[int, ...]
    column_counts: tuple[int, ...]

    @property
    def min_row(self) -> int:
        return min(self.row_counts)

    @property
    def min_column(self) -> int:
        return min(self.column_counts)


def negative_entry_profile(a: RatMatrix) -> NegativeEntryProfile:
    """Count strictly negative entries per row and per column."""
    a._require_square()
    n = a.order
    rows = tuple(sum(1 for j in range(n) if a[i, j] < 0) for i in range(n))
    cols = tuple(sum(1 for i in range(n) if a[i, j] < 0) for j in range(n))
    return NegativeEntryProfile(rows, cols)
