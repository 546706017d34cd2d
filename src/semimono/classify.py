"""Decision procedures for the matrix classes in the semimonotonicity
hierarchy, with machine-checkable certificates.

A square matrix A fails to be semimonotone exactly when some nonempty
support alpha admits y > 0 with A_aa y < 0 (pad y with zeros to recover
the failing x), and fails to be strictly semimonotone when some support
admits y > 0 with A_aa y <= 0.  Two sweeps over the supports decide this,
each described in its docstring: ``exact_order``, the pruned sweep whose
profile and first witness every membership verdict reads, and the screen
of ``_exact_order_screen``, which ``has_exact_order``, the searches in
``explore`` and the audits in ``verify`` run on integer rows.
``_minor_verdicts`` reads the P0 and P verdicts, and ``_z_rows`` is the
one Z rule.

All procedures are pure; the fixed (size, lex) order makes the first
witness deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

from .feasibility import (
    _minimal_witness,
    _normalize_certificate,
    _pair_fails,
    _witness,
    feasible_semistrict,
    feasible_strict,
)
from .ratcore import (
    IndexSet,
    RatMatrix,
    RatVector,
    _block,
    _cleared_rows,
    _det_and_inverse,
    _principal_minors,
    _support_members,
)


class WrongOrderError(ValueError):
    """An operation fixed to one matrix order was fed another."""


class Variant(Enum):
    """Which flavor of semimonotonicity a test refers to."""

    E0 = "E0"  # semimonotone
    E = "E"    # strictly semimonotone

    @property
    def strict_system(self) -> bool:
        """Whether a failing support solves the strict system (y > 0 with
        A_aa y < 0), as for E0, or the semistrict one (A_aa y <= 0), as for E."""
        return self is Variant.E0


class OrderStatus(Enum):
    ALL = "all"
    NONE = "none"
    MIXED = "mixed"


class ClassLabel(Enum):
    E0 = "E0"
    E = "E"
    ALMOST_E0 = "almost E0"
    ALMOST_E = "almost E"
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

    def describe(self) -> str:
        if self.k is None:
            profile = ",".join(s.value for s in self.evidence)
            return f"no exact order ({self.variant.value}; per-order profile {profile})"
        return f"{self.variant.value} exact order {self.k}"


# One classify call or audit reuses at most a few dozen (matrix, variant)
# keys, and nothing reuses one across CLI calls, so a small cache keeps every
# hit without holding hundreds of dead matrices.
@lru_cache(maxsize=64)
def exact_order(a: RatMatrix, variant: Variant) -> ExactOrderResult:
    """Full per-order membership profile and the exact order k, if any.

    A has exact order k when every order-(n-k) principal submatrix is in the
    class and no larger one is.  k = 0 means A itself belongs; k = n is
    reported when already the order-1 submatrices all fail (the order-0
    requirement is vacuous).

    The sweep decides the 2^n - 1 supports of A's Fraction rows in (size,
    lex) order and skips a support whose sub-support fails (membership is
    hereditary), so it solves only minimal ones: orders 1 and 2 by sign
    tests where the entries stand, larger blocks by
    ``feasibility._witness``.  The result keeps the first failing support
    with its normalized certificate, from which the membership verdicts
    read their witness.
    """
    n = a.order
    rows = a.entries
    strict = variant.strict_system
    members_per_order: list[list[bool]] = [[] for _ in range(n)]
    failing: set[tuple[int, ...]] = set()
    witness: Optional[SupportWitness] = None
    for key in _support_members(n):
        y: Optional[RatVector] = None
        if failing and any(key[:i] + key[i + 1:] in failing for i in range(len(key))):
            # heredity: a support with a failing sub-support fails unsolved
            fails = True
        elif len(key) == 1:
            a11 = rows[key[0] - 1][key[0] - 1]
            fails = a11 < 0 if strict else a11 <= 0
        elif len(key) == 2:
            # its 1x1 blocks pass here, so the pair's own signs decide
            fails = _pair_fails(rows, key[0] - 1, key[1] - 1, strict)
        else:
            y = _witness(_block(rows, key), strict)
            fails = y is not None
        if fails:
            if witness is None:
                # the first failing support was solved, so it has a witness:
                # the raw one above order 2, a closed form or shortcut below
                block = _block(rows, key)
                y = y or _witness(block, strict)
                assert y is not None
                cert = _normalize_certificate(block, y, strict)
                witness = SupportWitness(IndexSet(n, key), cert)
            failing.add(key)
        members_per_order[len(key) - 1].append(not fails)

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
    """Early-exit test for one specific exact order (the searches' screen).

    Equivalent to ``exact_order(a, variant).k == k``: the orders up to n-k
    must show no failing support, and every support of size n-k+1 must fail
    (heredity settles all larger orders).  It runs the screen of
    ``_exact_order_screen`` on the row-cleared integer matrix D A, which
    solves no LP and reads no witness.
    """
    return _exact_order_screen(a.order, k, variant.strict_system)(_cleared_rows(a.entries)[1])


# One closure per (n, k, strict): a search builds its screen once, and the
# audits and ``has_exact_order`` ask for a handful of shapes.
@lru_cache(maxsize=64)
def _exact_order_screen(n: int, k: int, strict: bool) -> Callable[[Sequence[Sequence[int]]], bool]:
    """The screen for exact order k on n x n integer rows D A (D a positive
    diagonal: the row-cleared rows, or the generator's L A), whose supports
    fail exactly where A's do ((D A)_aa = D_a A_aa): in (size, lex) order,
    every support of size <= n-k must pass, and every support of size
    n-k+1 must fail.

    The diagonal range, the pair list and the support lists depend on the
    shape alone and are built once here.  The screen returns at the first
    verdict that rules k out, so every support it decides is minimal: all
    supports of smaller size have passed by then.  A 1x1 block fails iff
    a11 < 0 (a11 <= 0, that is < 1 on integers, when not ``strict``); a
    pair whose 1x1 blocks pass is read in place by ``_pair_fails``; and
    ``_minimal_witness`` decides the supports above order 2 with no
    simplex.  Heredity never prunes here, so no set of failing supports is
    kept.
    """
    if not 0 <= k <= n:
        raise ValueError(f"exact order must lie in 0..{n}")
    passing = n - k
    low = 0 if strict else 1
    diagonal = range(n)
    pairs = tuple(itertools.combinations(diagonal, 2))
    pairs_fail = passing == 1
    indices = range(1, n + 1)
    inner = [key for size in range(3, passing + 1) for key in itertools.combinations(indices, size)]
    outer = list(itertools.combinations(indices, passing + 1)) if passing >= 2 else []

    def screen(rows: Sequence[Sequence[int]]) -> bool:
        if not passing:
            return all(rows[i][i] < low for i in diagonal)
        for i in diagonal:
            if rows[i][i] < low:
                return False
        # _pair_fails and _minimal_witness are read as module globals per call
        for i, j in pairs:
            if _pair_fails(rows, i, j, strict) is not pairs_fail:
                return False
        for key in inner:
            if _minimal_witness(rows, key, strict) is not None:
                return False
        for key in outer:
            if _minimal_witness(rows, key, strict) is None:
                return False
        return True

    return screen


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
    return _z_rows(a.entries)


def _z_rows(rows: Sequence[Sequence[Union[Fraction, int]]]) -> bool:
    """The one Z rule, on square rows, rational or integer: is every
    off-diagonal entry <= 0?  A 1x1 matrix has none, so it is Z."""
    return all(v <= 0 for i, row in enumerate(rows) for v in row[:i] + row[i + 1:])


def is_nonnegative(a: RatMatrix) -> bool:
    return all(v >= 0 for row in a.entries for v in row)


def _minor_verdicts(a: RatMatrix) -> tuple[ClassVerdict, ClassVerdict]:
    """The P0 and P verdicts from one scan of the principal minors in
    (size, lex) order: P fails at the first minor <= 0 and P0 at the first
    minor < 0, which never comes earlier, so the scan stops there."""
    n = a.order
    read_minor = _principal_minors(a)
    p: Optional[ClassVerdict] = None
    for key in _support_members(n):
        minor = read_minor(key)
        if minor <= 0:
            witness = MinorWitness(IndexSet(n, key), minor)
            p = p or ClassVerdict(ClassLabel.P, False, witness)
            if minor < 0:
                return ClassVerdict(ClassLabel.P0, False, witness), p
    return ClassVerdict(ClassLabel.P0, True), p or ClassVerdict(ClassLabel.P, True)


def is_P0(a: RatMatrix) -> ClassVerdict:
    """All 2^n - 1 principal minors nonnegative, checked exactly."""
    return _minor_verdicts(a)[0]


def is_P(a: RatMatrix) -> ClassVerdict:
    """All principal minors strictly positive."""
    return _minor_verdicts(a)[1]


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
    inv = _det_and_inverse(a)[1]
    return ClassVerdict(ClassLabel.INVERSE_Z, inv is not None and is_Z(inv))


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
    n = a.order
    rows = tuple(sum(1 for j in range(n) if a[i, j] < 0) for i in range(n))
    columns = tuple(sum(1 for i in range(n) if a[i, j] < 0) for j in range(n))
    return NegativeEntryProfile(rows, columns)
