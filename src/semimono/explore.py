"""Seeded randomized matrix generation and counterexample search.

No constructive parameterization of the exact-order classes is known beyond
small cases, so exploration is honest rejection sampling: generate matrices
matching a sign template, filter through the exact classifier, and check the
conjectured conclusions on every verified hit.  Searches can only falsify a
conjecture or accumulate evidence for it, never prove it; reports carry that
caveat.

Every public search is one call of ``_search``, whose pipeline README "How
it works" sets out; ``_draws`` gives the generator's rules, and each
conclusion checker states what it reads.

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
    _exact_order_screen,
    _z_rows,
    is_Z,
    negative_entry_profile,
)
from .feasibility import _certified_exact_order
from .ratcore import (
    IndexSet,
    RatMatrix,
    _block,
    _cleared_rows,
    _det_and_inverse,
    count_negative_eigenvalues,
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


class _WordTable:
    """A draw table over 32-bit words, read by computing the entry: what a
    list over all 2^32 words would hold."""

    __slots__ = ("width", "shift", "entry")

    def __init__(self, width: int, shift: int, entry: Callable[[int], object]) -> None:
        self.width, self.shift, self.entry = width, shift, entry

    def __getitem__(self, word: int) -> object:
        r = word >> self.shift
        return self if r >= self.width else self.entry(r)


def _table(bits: int, width: int, entry: Callable[[int], object]):
    """The draw of r from [0, width) on ``bits``-bit stream items, each
    item mapped to ``entry(r)`` for r = item >> (bits - k), k =
    ``width.bit_length()``, or to the table itself (a redraw) when that r
    is >= width: ``randrange(width)`` as ``_draws`` reads it.  A list over
    the 256 bytes, or a ``_WordTable`` over 32-bit words."""
    shift = bits - width.bit_length()
    if bits == 32:
        return _WordTable(width, shift, entry)
    entries = [entry(r) for r in range(width)]
    table: list = []
    table.extend(table if b >> shift >= width else entries[b >> shift] for b in range(256))
    return table


# Each cache holds the tables of a few dozen configs; an 8-bit table is a
# 256-entry list, and a 32-bit config may bring one numerator per draw.
@lru_cache(maxsize=512)
def _denominator_table(bits: int, db: int, num: int):
    """The denominator draw after the nonzero numerator ``num``: q - 1
    from [0, db) maps to the entry num * (L // q), L = lcm(1, ..., db)."""
    scale = lcm(*range(1, db + 1))
    return _table(bits, db, lambda r: num * (scale // (r + 1)))


@lru_cache(maxsize=64)
def _numerator_table(bits: int, db: int, sign: int, offset: int, width: int):
    """The numerator draw sign * (offset + r), r from [0, width): a zero
    numerator is the entry 0, any other leads to its denominator table."""
    return _table(
        bits, width, lambda r: (num := sign * (offset + r)) and _denominator_table(bits, db, num)
    )


@lru_cache(maxsize=64)
def _free_table(bits: int, db: int, weights: tuple[int, int, int], width: int):
    """A FREE cell's sign class from [0, wn + wz + wp): negative, zero (the
    entry 0) or positive, each nonzero class leading to the numerator
    table of magnitudes 1..width."""
    wn, wz, wp = weights
    neg = _numerator_table(bits, db, -1, 1, width)
    pos = _numerator_table(bits, db, 1, 1, width)
    return _table(bits, wn + wz + wp, lambda r: neg if r < wn else 0 if r < wn + wz else pos)


def _draws(cfg: GeneratorConfig) -> Iterator[tuple[int, _IntRows]]:
    """The candidate stream as (L, rows): rows is the drawn matrix A times
    L = lcm(1, ..., denominator bound), one constant per config, so an
    entry p/q is the integer p * (L // q).  L A has the exact order and
    principal-minor signs of A.

    Per entry: a FREE position first draws its sign class from
    ``randrange(wn + wz + wp)``; a nonzero class draws the numerator
    magnitude, and a nonzero numerator draws its denominator.  Each draw
    from [lo, lo + w) is ``lo + randrange(w)`` on ``random.Random(seed)``,
    read from ``_words``.  CPython's ``randrange(w)`` takes k =
    ``w.bit_length()`` bits from ``getrandbits(k)``, redrawing while the
    result is >= w, and for k <= 32 ``getrandbits(k)`` is the top k bits of
    one 32-bit output.  So each draw here is ``word >> (32 - k)``, redrawn
    while >= w: the same values as ``randrange``, and the same ones
    ``randint(lo, lo + w - 1)`` gives.  When the free-weight sum and each
    numerator bound + 1 are below 2^8, as with every default, every k is
    at most 8 (the denominator bound is at most 255), so the draws read
    only the top byte of each output and shift by 8 - k: the same values
    at the same stream positions.  Wider configs read the 32-bit words.
    ``GeneratorConfig`` keeps every width below 2^32.

    Every draw is a lookup in a cached table (``_table``) that maps each
    stream item to what it decides: a further table, the cleared entry, or
    the table itself for a redraw.  One loop, on either stream, follows
    each cell's chain of tables until an entry is an int; a ZERO cell
    starts at the entry 0.  Outputs drawn past the last candidate are
    discarded.
    """
    db = cfg.denominator_bound
    scale = lcm(*range(1, db + 1))
    ws = sum(cfg.free_weights)
    nb_off = cfg.numerator_bound
    nb_diag = nb_off if cfg.diagonal_numerator_bound is None else cfg.diagonal_numerator_bound
    bits = 8 if max(ws, nb_off + 1, nb_diag + 1) < 2**8 else 32
    word = _words(cfg.seed, bits).__next__
    # each cell's first table: the numerator is sign * (offset + r), r
    # drawn from [0, width), after a FREE cell's sign class
    starts = {
        EntrySign.NEG: lambda nb: _numerator_table(bits, db, -1, 1, nb),
        EntrySign.POS: lambda nb: _numerator_table(bits, db, 1, 1, nb),
        EntrySign.NONNEG: lambda nb: _numerator_table(bits, db, 1, 0, nb + 1),
        EntrySign.NONPOS: lambda nb: _numerator_table(bits, db, -1, 0, nb + 1),
        EntrySign.ZERO: lambda nb: 0,
        EntrySign.FREE: lambda nb: _free_table(bits, db, cfg.free_weights, nb),
    }
    cells = [
        [starts[sign](nb_diag if i == j else nb_off) for j, sign in enumerate(signs)]
        for i, signs in enumerate(cfg.template)
    ]
    for _ in range(cfg.max_attempts):
        rows = []
        for cell_row in cells:
            row = []
            for entry in cell_row:
                while entry.__class__ is not int:
                    entry = entry[word()]
                row.append(entry)
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
# per-matrix conjecture checkers (shared by searches, audits, and tests)


def conjecture_1_violations(a: RatMatrix) -> list[tuple[str, str]]:
    """Failed conclusions of the inverse-block conjecture on one matrix:
    every size-(n-1) principal block of A^{-1} should be a Z-matrix, and A
    should have exactly one negative eigenvalue.

    The blocks are read in place from one inverse of A, which agrees with
    the conjecture's partitioned inverse formula (a test oracle) wherever
    that is defined.  A block is reported undefined where the formula is,
    which is when A or A_aa is singular.  For nonsingular A, A_aa is
    singular iff (A^{-1})_ii = 0, i the one index outside alpha, by
    Jacobi's identity det A_aa = det A (A^{-1})_ii.
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
        elif not _z_rows(block := _block(inv.entries, combo)):
            violations.append(
                (f"inverse principal block for alpha={alpha} is not Z", repr(RatMatrix(block)))
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


def check_search(
    search: Callable[..., SearchReport], order: int, k: Optional[int], target_hits: Optional[int]
) -> None:
    """Raise the ValueError that ``search`` raises, before it samples, on
    these arguments, if any: conjecture 1 at n = 2, a negative-entries k
    outside 1..n-1, a ``target_hits`` below 1, and an exact order outside
    0..n.  The conjecture searches fix k = 2 and ignore ``k``.

    ``_search`` calls it first, so a caller can refuse what a search would
    refuse before a side effect of its own.
    """
    if search is search_conjecture_1 and order == 2:
        # exact order 2 at n = 2 needs a11, a22 < 0, and -I, with two
        # negative eigenvalues, would count as a counterexample
        raise ValueError("conjecture 1 needs n >= 3")
    if search in (search_conjecture_1, search_conjecture_2):
        k = 2
    elif search is search_negative_entries_question and not 1 <= k < order:
        raise ValueError("k must satisfy 1 <= k < n")
    if target_hits is not None and target_hits < 1:
        raise ValueError("target_hits must be >= 1")
    if not 0 <= k <= order:
        raise ValueError(f"exact order must lie in 0..{order}")


def _search(
    search: Callable[..., SearchReport],
    target: str,
    config: GeneratorConfig,
    k: int,
    variant: Variant,
    target_hits: Optional[int],
    violations: Callable[[RatMatrix], list[tuple[str, str]]],
    second_route: Callable[[RatMatrix], bool],
    z_only: bool = False,
) -> SearchReport:
    """The one search loop of the public ``search``; its report on
    ``target`` carries the evidence note.  The screen is
    ``classify._exact_order_screen``'s for (n, k, variant), built once k
    is checked, then, with ``z_only``, the Z rule on the few candidates
    that pass it: a template with a FREE, NONNEG or POS off-diagonal cell
    draws non-Z candidates."""
    check_search(search, config.order, k, target_hits)
    screen = _exact_order_screen(config.order, k, variant.strict_system)
    hits: list[RatMatrix] = []
    counterexamples: list[Counterexample] = []
    attempts = 0
    for scale, rows in _draws(config):
        attempts += 1
        if not screen(rows) or z_only and not _z_rows(rows):
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
        search_exact_order, f"exact-order k={k} ({variant.value})",
        config, k, variant, target_hits, lambda m: [], lambda m: True,
    )


def search_conjecture_1(
    config: GeneratorConfig, target_hits: Optional[int] = None
) -> SearchReport:
    """Hunt for Z-matrices of E0 exact order 2 violating the inverse-block
    conjecture (Z principal blocks of the inverse, one negative eigenvalue).

    The conjecture needs n >= 3, which ``check_search`` states: order 2 is
    refused before sampling, and order 1 as for every search."""
    return _search(
        search_conjecture_1,
        "conjecture-1 (Z exact order 2: inverse blocks Z, one negative eigenvalue)",
        config, 2, Variant.E0, target_hits,
        conjecture_1_violations, _independent_inverse_check, z_only=True,
    )


def search_conjecture_2(
    config: GeneratorConfig, target_hits: Optional[int] = None
) -> SearchReport:
    """Hunt for E0-exact-order-2 matrices (no Z restriction) violating
    det < 0 or inverse-Z-ness.  The report notes how many hits escape the
    Z class, since those are the informative ones."""
    report = _search(
        search_conjecture_2,
        "conjecture-2 (exact order 2: det < 0, inverse exists and is Z)",
        config, 2, Variant.E0, target_hits,
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
    return _search(
        search_negative_entries_question,
        f"negative-entries question (exact order k={k}, {variant.value})",
        config, k, variant, target_hits,
        lambda m: _negative_entry_violations(m, k), lambda m: _negative_entries_recounted(m, k),
    )
