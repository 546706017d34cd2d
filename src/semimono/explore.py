"""Seeded randomized matrix generation and counterexample search.

No constructive parameterization of the exact-order classes is known beyond
small cases, so exploration is honest rejection sampling: generate matrices
matching a sign template, filter through the exact classifier, and check the
conjectured conclusions on every verified hit.  Searches can only falsify a
conjecture or accumulate evidence for it, never prove it; reports carry that
caveat.

Every public search is one call of one loop, ``_search``, which returns
its report: the generator ``_draws`` yields each candidate as integer rows
L A (one constant L per config), the ``has_exact_order`` sweep screens it
(the ``classify`` module docstring describes both sweeps), each hit's
exact order is proven by substituted certificates
(``feasibility._certified_exact_order``), and a counterexample is reported
only after a triple check.  README "How it works" gives the full account.

Conjecture 1 is stated with the partitioned inverse formula; its checker
reads the blocks of one inverse of A instead, which agrees wherever the
formula is defined.  The formula itself is a test oracle.

Determinism contract: a report is a pure function of its configuration
(seed included), so identical configs reproduce identical reports.
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterator, Optional

from .classify import (
    Variant,
    _has_exact_order,
    is_Z,
    negative_entry_profile,
)
from .feasibility import _certified_exact_order
from .ratcore import (
    IndexSet,
    RatMatrix,
    _cleared_rows,
    _det_and_inverse,
    count_negative_eigenvalues,
    principal_submatrix,
)


class EntrySign(Enum):
    NEG = "neg"
    POS = "pos"
    NONNEG = "nonneg"
    NONPOS = "nonpos"
    ZERO = "zero"
    FREE = "free"


Template = tuple[tuple[EntrySign, ...], ...]


def _grid(n: int, diag: EntrySign, off: EntrySign) -> Template:
    return tuple(
        tuple(diag if i == j else off for j in range(n)) for i in range(n)
    )


def template_exact_order_pattern(n: int, variant: Variant = Variant.E0) -> Template:
    """Nonnegative (resp. positive) diagonal, strictly negative off-diagonal:
    the sign pattern exact-order-(n-1) matrices are forced into."""
    diag = EntrySign.NONNEG if variant is Variant.E0 else EntrySign.POS
    return _grid(n, diag, EntrySign.NEG)


def template_z(n: int) -> Template:
    """Nonnegative diagonal, nonpositive off-diagonal (Z-matrices with the
    diagonal signs any semimonotone-flavored target forces)."""
    return _grid(n, EntrySign.NONNEG, EntrySign.NONPOS)


def template_free(n: int) -> Template:
    return _grid(n, EntrySign.FREE, EntrySign.FREE)


def template_nonneg(n: int) -> Template:
    return _grid(n, EntrySign.NONNEG, EntrySign.NONNEG)


def template_diag_nonneg_off_free(n: int) -> Template:
    """Free off-diagonal signs over a nonnegative diagonal.

    A nonnegative diagonal is a definitional necessary condition for every
    semimonotone-of-exact-order target (the order-1 submatrices must pass),
    so restricting the diagonal loses no candidate while keeping the
    off-diagonal part unconstrained.
    """
    return _grid(n, EntrySign.NONNEG, EntrySign.FREE)


# The widest draw that one 32-bit generator output can reproduce: NONNEG and
# NONPOS cells draw from bound + 1 values, still below 2^32.
_MAX_WIDTH = 2**31
# The largest denominator bound: every row is cleared by lcm(1..bound).
_MAX_DENOMINATOR = 255


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic rejection-sampling stream specification.

    ``free_weights`` are the relative odds of drawing a negative, zero, or
    positive value at FREE template positions; every sign pattern keeps
    positive probability whenever all three weights are positive.
    ``diagonal_numerator_bound`` lets the diagonal range differ from the
    off-diagonal one (the interesting targets tend to need diagonals that
    dominate the off-diagonal magnitudes); None means "same bound".
    Numerator bounds and the free-weight sum may reach 2**31;
    ``denominator_bound`` may reach 255, since every row is cleared by
    L = lcm(1, ..., denominator_bound), which has 362 bits at 255.
    """

    order: int
    template: Template
    numerator_bound: int = 5
    denominator_bound: int = 3
    seed: int = 0
    max_attempts: int = 10_000
    free_weights: tuple[int, int, int] = (4, 1, 4)
    diagonal_numerator_bound: Optional[int] = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.numerator_bound < 1 or self.denominator_bound < 1:
            raise ValueError("bounds must be >= 1")
        if self.diagonal_numerator_bound is not None and self.diagonal_numerator_bound < 1:
            raise ValueError("bounds must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if len(self.template) != self.order or any(len(r) != self.order for r in self.template):
            raise ValueError("template shape must match the order")
        if any(w < 0 for w in self.free_weights) or sum(self.free_weights) == 0:
            raise ValueError("free weights must be nonnegative and not all zero")
        widths = (self.numerator_bound, self.diagonal_numerator_bound or 1,
                  self.denominator_bound, sum(self.free_weights))
        if max(widths) > _MAX_WIDTH:
            raise ValueError("bounds and the free-weight sum must be <= 2**31")
        if self.denominator_bound > _MAX_DENOMINATOR:
            raise ValueError(f"denominator_bound must be <= {_MAX_DENOMINATOR}")


_IntRows = list[list[int]]

# generator outputs per bulk refill of ``_words``
_REFILL = 512


def _words(seed: int, bits: int = 32) -> Iterator[int]:
    """The outputs of ``random.Random(seed)``, in order: the 32-bit words,
    or with ``bits=8`` the top byte of each.

    ``getrandbits(32 m)`` concatenates m consecutive outputs, the first one
    least significant, so each refill is m outputs read off as little-endian
    32-bit words, and every fourth byte from the fourth on is their top
    byte.  Iterating bytes yields cached small ints, so the byte stream
    allocates no int object per output.
    """
    getrandbits = random.Random(seed).getrandbits
    unpack = struct.Struct(f"<{_REFILL}I").unpack
    refills = (
        getrandbits(32 * _REFILL).to_bytes(4 * _REFILL, "little")
        for _ in itertools.repeat(None)
    )
    if bits == 8:
        return itertools.chain.from_iterable(refill[3::4] for refill in refills)
    return itertools.chain.from_iterable(map(unpack, refills))


def _draws(cfg: GeneratorConfig) -> Iterator[tuple[int, _IntRows]]:
    """The candidate stream as (L, rows): rows is the drawn matrix A times
    L = lcm(1, ..., denominator bound), one constant per config, so an
    entry p/q is the integer p * (L // q), read from a per-denominator
    table.  L A has the exact order and principal-minor signs of A.

    Per entry: a FREE position first draws its sign class from
    ``randrange(wn + wz + wp)``; a nonzero class draws the numerator
    magnitude, and a nonzero numerator draws its denominator.  Each draw
    from [lo, lo + w) is ``lo + randrange(w)`` on ``random.Random(seed)``,
    read from ``_words``.  CPython's ``randrange(w)`` takes k =
    ``w.bit_length()`` bits from ``getrandbits(k)``, redrawing while the
    result is >= w, and for k <= 32 ``getrandbits(k)`` is the top k bits of
    one 32-bit output.  So each draw here is ``word >> (32 - k)``, redrawn
    while >= w, with the shift precomputed per width: the same values as
    ``randrange``, and the same ones ``randint(lo, lo + w - 1)`` gives.
    When the free-weight sum and each numerator bound + 1 are below 2^8,
    as with every default, every k is at most 8 (the denominator bound is
    at most 255), so the draws read only the top byte of each output and
    shift by 8 - k: the same values at the same stream positions.  Wider
    configs read the 32-bit words.  ``GeneratorConfig`` keeps every width
    below 2^32.  Outputs drawn past the last candidate are discarded.
    """
    neg, pos, zero, nonneg, free = (
        EntrySign.NEG, EntrySign.POS, EntrySign.ZERO, EntrySign.NONNEG, EntrySign.FREE
    )
    db = cfg.denominator_bound
    scale = lcm(*range(1, db + 1))
    # mult[r] = L // q for the denominator q = r + 1 drawn as r
    mult = [scale // q for q in range(1, db + 1)]
    wn, wz, wp = cfg.free_weights
    wnz = wn + wz
    ws = wnz + wp
    nb_off = cfg.numerator_bound
    nb_diag = nb_off if cfg.diagonal_numerator_bound is None else cfg.diagonal_numerator_bound
    bits = 8 if max(ws, nb_off + 1, nb_diag + 1) < 2**8 else 32
    word = _words(cfg.seed, bits).__next__
    d_shift = bits - db.bit_length()
    s_shift = bits - ws.bit_length()
    # per cell (is FREE, numerator sign, offset, width, shift): the
    # numerator is sign * (offset + r) for r drawn from [0, width); width 0
    # draws none.  A FREE cell's sign class picks the numerator sign (or
    # zero) first.
    cells = []
    for i, signs in enumerate(cfg.template):
        cell_row = []
        for j, sign in enumerate(signs):
            nb = nb_diag if i == j else nb_off
            if sign is zero:
                sgn, off, w = 1, 0, 0
            elif sign in (neg, pos, free):
                sgn, off, w = -1 if sign is neg else 1, 1, nb
            else:
                sgn, off, w = 1 if sign is nonneg else -1, 0, nb + 1
            cell_row.append((sign is free, sgn, off, w, bits - w.bit_length()))
        cells.append(cell_row)
    for _ in range(cfg.max_attempts):
        rows = []
        for cell_row in cells:
            row = []
            for is_free, sgn, off, w, shift in cell_row:
                if is_free:
                    r = word() >> s_shift
                    while r >= ws:
                        r = word() >> s_shift
                    if r < wn:
                        sgn = -1
                    elif r < wnz:
                        row.append(0)
                        continue
                elif not w:
                    row.append(0)
                    continue
                r = word() >> shift
                while r >= w:
                    r = word() >> shift
                num = sgn * (off + r)
                if num:
                    r = word() >> d_shift
                    while r >= db:
                        r = word() >> d_shift
                    num *= mult[r]
                row.append(num)
            rows.append(row)
        yield scale, rows


@lru_cache(maxsize=1024)
def _entry(p: int, q: int) -> Fraction:
    """The Fraction p/q, shared between matrices: a Fraction is immutable,
    and the hits of a search draw from few distinct values.  The generator
    asks for (cleared entry, L); an unreduced pair returns the object of its
    reduced one, so equal values are one object while they stay cached."""
    g = gcd(p, q)
    return Fraction(p, q) if g == 1 else _entry(p // g, q // g)


def _rat_matrix(scale: int, rows: _IntRows) -> RatMatrix:
    """The candidate A from the rows L A that ``_draws`` yields, L = scale."""
    return RatMatrix([[_entry(c, scale) for c in row] for row in rows])


def generate(cfg: GeneratorConfig) -> Iterator[RatMatrix]:
    """Deterministic seeded stream of template-conforming matrices; yields at
    most ``max_attempts`` of them."""
    for scale, rows in _draws(cfg):
        yield _rat_matrix(scale, rows)


@dataclass(frozen=True)
class Counterexample:
    matrix: RatMatrix
    failed: str
    evidence: str


@dataclass(frozen=True)
class SearchReport:
    target: str
    attempts: int
    hits: tuple[RatMatrix, ...]
    counterexamples: tuple[Counterexample, ...]
    notes: tuple[str, ...] = ()

    @property
    def hit_count(self) -> int:
        return len(self.hits)


_EVIDENCE_NOTE = "randomized search accumulates evidence or counterexamples; it proves nothing"


# ---------------------------------------------------------------------------
# the conjecture-1 screen on the integer rows (every pass is proven by certificates)


def _conjecture_1_screen(rows: _IntRows) -> bool:
    """The exact-order-2 sweep, then the Z test on the few candidates that
    pass it.  Under the ``z`` and ``pattern`` templates every candidate is
    Z; templates with a ``POS``, ``NONNEG`` or ``FREE`` off-diagonal cell
    need the Z test."""
    return _has_exact_order(rows, 2, Variant.E0) and all(
        max(row[:i] + row[i + 1:]) <= 0 for i, row in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# per-matrix conjecture checkers (shared by searches, audits, and tests)


def conjecture_1_violations(a: RatMatrix) -> list[tuple[str, str]]:
    """Failed conclusions of the inverse-block conjecture on one matrix:
    every size-(n-1) principal block of A^{-1} should be a Z-matrix, and A
    should have exactly one negative eigenvalue.

    The blocks are read from one inverse of A.  A block is reported
    undefined where the conjecture's partitioned inverse formula is, which
    is when A or A_aa is singular.  For nonsingular A, A_aa is singular
    iff (A^{-1})_ii = 0, i the one index outside alpha, by Jacobi's
    identity det A_aa = det A (A^{-1})_ii.
    """
    n = a.order
    violations: list[tuple[str, str]] = []
    inv = _det_and_inverse(a)[1]
    for combo in itertools.combinations(range(1, n + 1), n - 1):
        alpha = IndexSet(n, combo)
        i = n * (n + 1) // 2 - sum(combo) - 1
        if inv is None or inv[i, i] == 0:
            violations.append(
                (f"inverse block formula undefined for alpha={alpha}", "matrix is singular")
            )
            continue
        block = principal_submatrix(inv, alpha)
        if not is_Z(block):
            violations.append(
                (f"inverse principal block for alpha={alpha} is not Z", repr(block))
            )
    negatives = count_negative_eigenvalues(a)
    if negatives != 1:
        violations.append(("negative eigenvalue count != 1", f"count = {negatives}"))
    return violations


def conjecture_2_violations(a: RatMatrix) -> list[tuple[str, str]]:
    """Failed conclusions of the inverse-Z conjecture on one matrix:
    det A < 0 and A^{-1} exists and is a Z-matrix, both read from one
    elimination."""
    violations: list[tuple[str, str]] = []
    d, inv = _det_and_inverse(a)
    if d >= 0:
        violations.append(("det A is not negative", f"det = {d}"))
    if inv is None:
        violations.append(("inverse does not exist", "det = 0"))
    elif not is_Z(inv):
        violations.append(("inverse is not a Z-matrix", repr(inv)))
    return violations


def _independent_inverse_check(a: RatMatrix) -> bool:
    """Second route to the inverse: substituted back, A A^{-1} must be I
    exactly.  A singular A has no inverse to check."""
    inv = _det_and_inverse(a)[1]
    return inv is None or a @ inv == RatMatrix.identity(a.order)


def _negative_entry_violations(a: RatMatrix, k: int) -> list[tuple[str, str]]:
    profile = negative_entry_profile(a)
    if profile.min_row >= k and profile.min_column >= k:
        return []
    return [
        (
            f"a row or column has fewer than {k} negative entries",
            f"row counts {profile.row_counts}, column counts {profile.column_counts}",
        )
    ]


def _negative_entries_recounted(a: RatMatrix, k: int) -> bool:
    """Second route to the negative-entry counts, sharing no code with
    ``negative_entry_profile``: recounted on the row-cleared integer rows
    D A, whose signs are A's since D > 0, some row or column must have
    fewer than k negative entries."""
    rows = _cleared_rows(a.entries)[1]
    row_counts = [sum(v < 0 for v in row) for row in rows]
    column_counts = [sum(v < 0 for v in column) for column in zip(*rows)]
    return min(row_counts) < k or min(column_counts) < k


# ---------------------------------------------------------------------------
# searches


def _search(
    target: str,
    config: GeneratorConfig,
    k: int,
    variant: Variant,
    target_hits: Optional[int],
    screen: Callable[[_IntRows], bool],
    violations: Callable[[RatMatrix], list[tuple[str, str]]],
    second_route: Callable[[RatMatrix], bool],
) -> SearchReport:
    """The one search loop (see the module docstring); its report on
    ``target`` carries the evidence note."""
    if target_hits is not None and target_hits < 1:
        raise ValueError("target_hits must be >= 1")
    if not 0 <= k <= config.order:
        raise ValueError(f"exact order must lie in 0..{config.order}")
    hits: list[RatMatrix] = []
    counterexamples: list[Counterexample] = []
    attempts = 0
    for scale, rows in _draws(config):
        attempts += 1
        if not screen(rows):
            continue
        m = _rat_matrix(scale, rows)
        # the hit's exact order, proven by certificates substituted into its
        # own row-cleared D A, so the proof does not rest on the drawn L A
        if not _certified_exact_order(_cleared_rows(m.entries)[1], k, variant.strict_system):
            raise AssertionError(
                "screen and full classifier disagree: a certificate fails by substitution"
            )
        hits.append(m)
        found = violations(m)
        # triple check: the certificates proved the exact order above, the
        # checker must reproduce the failure, and the second route must agree
        if found and not (violations(m) and second_route(m)):
            raise AssertionError("counterexample failed re-validation; refusing to report it")
        counterexamples.extend(Counterexample(m, failed, evidence) for failed, evidence in found)
        if target_hits is not None and len(hits) >= target_hits:
            break
    return SearchReport(
        target, attempts, tuple(hits), tuple(counterexamples), (_EVIDENCE_NOTE,)
    )


def search_exact_order(
    config: GeneratorConfig,
    k: int,
    variant: Variant,
    target_hits: Optional[int] = None,
) -> SearchReport:
    """Filter the generator stream through the exact-order classifier."""
    return _search(
        f"exact-order k={k} ({variant.value})", config, k, variant, target_hits,
        lambda rows: _has_exact_order(rows, k, variant), lambda m: [], lambda m: True,
    )


def search_conjecture_1(
    config: GeneratorConfig, target_hits: Optional[int] = None
) -> SearchReport:
    """Hunt for Z-matrices of E0 exact order 2 violating the inverse-block
    conjecture (Z principal blocks of the inverse, one negative eigenvalue).

    The conjecture needs n >= 3: at n = 2 exact order 2 means a11, a22 < 0,
    and -I, with two negative eigenvalues, would count as a counterexample.
    Order 2 is refused before sampling; order 1 as for every search."""
    if config.order == 2:
        raise ValueError("conjecture 1 needs n >= 3")
    return _search(
        "conjecture-1 (Z exact order 2: inverse blocks Z, one negative eigenvalue)",
        config, 2, Variant.E0, target_hits,
        _conjecture_1_screen, conjecture_1_violations, _independent_inverse_check,
    )


def search_conjecture_2(
    config: GeneratorConfig, target_hits: Optional[int] = None
) -> SearchReport:
    """Hunt for E0-exact-order-2 matrices (no Z restriction) violating
    det < 0 or inverse-Z-ness.  The report notes how many hits escape the
    Z class, since those are the informative ones."""
    report = _search(
        "conjecture-2 (exact order 2: det < 0, inverse exists and is Z)",
        config, 2, Variant.E0, target_hits,
        lambda rows: _has_exact_order(rows, 2, Variant.E0),
        conjecture_2_violations, _independent_inverse_check,
    )
    non_z_hits = sum(1 for m in report.hits if not is_Z(m))
    return replace(report, notes=report.notes + (f"hits outside the Z class: {non_z_hits}",))


def search_negative_entries_question(
    config: GeneratorConfig,
    k: int,
    variant: Variant = Variant.E0,
    target_hits: Optional[int] = None,
) -> SearchReport:
    """Probe whether exact-order-k matrices always carry at least k negative
    entries in every row and column; a verified violation would settle the
    question negatively."""
    n = config.order
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    return _search(
        f"negative-entries question (exact order k={k}, {variant.value})",
        config, k, variant, target_hits,
        lambda rows: _has_exact_order(rows, k, variant),
        lambda m: _negative_entry_violations(m, k), lambda m: _negative_entries_recounted(m, k),
    )
