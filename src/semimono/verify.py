"""Executable audits: each structural result about exact-order matrices
becomes a hypotheses/conclusions check runnable on arbitrary input.

Hypothesis checking is kept strictly separate from conclusion checking: a
failed conclusion *with hypotheses met* is genuine evidence against the
audited statement and is surfaced as a counterexample with re-checkable
data, while unmet hypotheses simply skip the conclusions.  The audits of
one exact order (``_hypothesis``) decide it as the randomized searches in
``explore`` decide their candidates: by the ``has_exact_order`` sweep on
A's row-cleared integer rows, with no LP; only an unmet hypothesis reads
the full ``exact_order`` profile, which its note prints.  The searches run
their own conclusion checkers; Theorem 4.11's minor characterization is
checked here only, in ``audit_thm_4_11``.

The Schur complements of Theorems 3.5 and 4.11 are taken over order-(n-1)
blocks, so each is the scalar det A / det A_aa of two principal minors of
the row-cleared D A (Theorem 3.5 reads det A off the pass that inverts A),
and no partitioned formula is evaluated; evidence prints it as the 1x1
``RatMatrix[v]``, the form the audit golden digests pin.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .classify import (
    Variant,
    WrongOrderError,
    copositive_exact_order,
    exact_order,
    has_exact_order,
    is_Z,
    negative_entry_profile,
)
from .ratcore import (
    IndexSet,
    RatMatrix,
    _det_and_inverse,
    _principal_minors,
    _support_members,
    count_negative_eigenvalues,
    is_irreducible,
    permutation_similarity,
    principal_submatrix,
)


class NotSymmetricError(ValueError):
    """The symmetric-equivalence audit needs symmetric input."""


@dataclass(frozen=True, slots=True)
class Conclusion:
    name: str
    passed: bool
    evidence: str


@dataclass(frozen=True, slots=True)
class AuditReport:
    audit_id: str
    hypotheses_met: bool
    hypotheses_note: str
    conclusions: tuple[Conclusion, ...]
    counterexample: Optional[RatMatrix] = None

    @property
    def ok(self) -> bool:
        """False exactly when a conclusion failed with hypotheses met."""
        return self.counterexample is None


def _report(
    audit_id: str,
    a: RatMatrix,
    hypotheses_met: bool,
    note: str,
    conclusions: list[Conclusion],
) -> AuditReport:
    counter = a if hypotheses_met and any(not c.passed for c in conclusions) else None
    return AuditReport(audit_id, hypotheses_met, note, tuple(conclusions), counter)


def _hypothesis(a: RatMatrix, variant: Variant, k: int, requires: str) -> tuple[bool, str]:
    """Whether A has exact order k in ``variant``, and the note that prints
    A's classification against what the audit ``requires``.

    The hypothesis is decided by ``has_exact_order`` on A's row-cleared
    integer rows, which solves no LP, and a met one prints what
    ``ExactOrderResult.describe()`` prints for exact order k.  Only an unmet
    one calls ``exact_order``, for the profile its note prints; the answer
    is then that result's k == k, which agrees with the integer test on
    every input.
    """
    if has_exact_order(a, k, variant):
        return True, f"classified as {variant.value} exact order {k}; requires {requires}"
    result = exact_order(a, variant)
    return result.k == k, f"classified as {result.describe()}; requires {requires}"


def _diagonal_conclusion(a: RatMatrix, variant: Variant) -> Conclusion:
    """The admissible diagonal signs: >= 0 for E0, > 0 for E."""
    diagonal = [a[i, i] for i in range(a.order)]
    strict = variant is Variant.E
    return Conclusion(
        f"diagonal entries {'> 0' if strict else '>= 0'}",
        all(v > 0 if strict else v >= 0 for v in diagonal),
        f"diagonal = {[str(v) for v in diagonal]}",
    )


def _conclusion(name: str, failures: list[str], all_clear: str) -> Conclusion:
    """The conclusion ``name``: passed iff nothing is in ``failures``, with
    the failures, or else ``all_clear``, as its evidence."""
    return Conclusion(name, not failures, "; ".join(failures) or all_clear)


def _almost_block_conclusions(a: RatMatrix, variant: Variant) -> list[Conclusion]:
    """Auxiliary checks on the order-(n-1) principal blocks.

    Under exact-order-2 hypotheses these blocks sit just outside the class
    while all their proper submatrices sit inside, which forces a negative
    entry into each of their rows and columns; in the E0 flavor the blocks
    are additionally invertible with entrywise nonpositive inverses.
    """
    n = a.order
    neg_bad: list[str] = []
    inv_bad: list[str] = []
    for combo in itertools.combinations(range(1, n + 1), n - 1):
        alpha = IndexSet(n, combo)
        block = principal_submatrix(a, alpha)
        profile = negative_entry_profile(block)
        if profile.min_row < 1 or profile.min_column < 1:
            neg_bad.append(f"alpha={alpha} has a nonnegative row or column")
        if variant is Variant.E0:
            block_inv = _det_and_inverse(block)[1]
            if block_inv is None:
                inv_bad.append(f"alpha={alpha} block is singular")
            elif any(v > 0 for row in block_inv.entries for v in row):
                inv_bad.append(f"alpha={alpha} inverse has a positive entry")
    out = [
        _conclusion("order n-1 blocks: negative entry in every row and column", neg_bad,
                    "holds for every block")
    ]
    if variant is Variant.E0:
        out.append(_conclusion("order n-1 blocks: inverse exists and is entrywise nonpositive",
                               inv_bad, "holds for every block"))
    return out


def audit_thm_3x3_structure(a: RatMatrix, variant: Variant = Variant.E0) -> AuditReport:
    """3x3 exact-order-2 matrices must be Z with an admissible sign pattern,
    negative (resp. nonpositive) order-2 minors, and irreducible."""
    if a.order != 3:
        raise WrongOrderError("this audit is specific to 3x3 matrices")
    met, note = _hypothesis(a, variant, 2, "exact order 2")
    conclusions: list[Conclusion] = []
    if met:
        n = 3
        conclusions.append(_diagonal_conclusion(a, variant))
        conclusions.append(
            Conclusion(
                "off-diagonal entries < 0 (Z-matrix form)",
                all(a[i, j] < 0 for i in range(n) for j in range(n) if i != j),
                "off-diagonal signs checked entrywise",
            )
        )
        read_minor = _principal_minors(a)
        minors = [read_minor(pair) for pair in ((1, 2), (1, 3), (2, 3))]
        negative = variant is Variant.E0
        conclusions.append(
            Conclusion(
                f"order-2 principal minors {'negative' if negative else 'nonpositive'}",
                all(m < 0 if negative else m <= 0 for m in minors),
                f"minors = {[str(m) for m in minors]}",
            )
        )
        upper = all(a[i, j] == 0 for i in range(n) for j in range(n) if i > j)
        lower = all(a[i, j] == 0 for i in range(n) for j in range(n) if i < j)
        conclusions.append(
            Conclusion("not a triangular matrix", not upper and not lower, "zero pattern scan")
        )
        conclusions.append(
            Conclusion("irreducible", is_irreducible(a), "strong connectivity of the support digraph")
        )
        conclusions.extend(_almost_block_conclusions(a, variant))
    return _report("thm3.4", a, met, note, conclusions)


def audit_thm_3x3_inverse(a: RatMatrix) -> AuditReport:
    """3x3 semimonotone matrices of exact order 2: negative determinant,
    Z-matrix inverse, exactly one negative eigenvalue, positive Schur
    complement of the leading 2x2 block."""
    if a.order != 3:
        raise WrongOrderError("this audit is specific to 3x3 matrices")
    met, note = _hypothesis(a, Variant.E0, 2, "E0 exact order 2")
    conclusions: list[Conclusion] = []
    if met:
        d, inv = _det_and_inverse(a)
        conclusions.append(Conclusion("det A < 0", d < 0, f"det = {d}"))
        evidence = "singular" if inv is None else f"inverse = {inv!r}"
        conclusions.append(
            Conclusion("inverse exists and is a Z-matrix", inv is not None and is_Z(inv), evidence)
        )
        negatives = count_negative_eigenvalues(a)
        conclusions.append(
            Conclusion("exactly one negative eigenvalue", negatives == 1, f"count = {negatives}")
        )
        # det A / det A_aa by Schur's determinant identity
        leading = _principal_minors(a)((1, 2))
        schur = d / leading if leading else None
        conclusions.append(
            Conclusion(
                "Schur complement of A_{12,12} positive",
                schur is not None and schur > 0,
                "leading block singular" if schur is None else f"value = RatMatrix[{schur}]",
            )
        )
    return _report("thm3.5", a, met, note, conclusions)


def audit_prop_4_10(a: RatMatrix, variant: Variant = Variant.E0) -> AuditReport:
    """Exact-order-2 matrices of order >= 3: admissible diagonal signs and
    at least two negative entries in every row and column."""
    n = a.order
    if n < 3:
        return _report("prop4.10", a, False, f"order {n} < 3; statement needs n >= 3", [])
    met, note = _hypothesis(a, variant, 2, "exact order 2")
    conclusions: list[Conclusion] = []
    if met:
        conclusions.append(_diagonal_conclusion(a, variant))
        profile = negative_entry_profile(a)
        conclusions.append(
            Conclusion(
                "every row has >= 2 negative entries",
                profile.min_row >= 2,
                f"row counts = {profile.row_counts}",
            )
        )
        conclusions.append(
            Conclusion(
                "every column has >= 2 negative entries",
                profile.min_column >= 2,
                f"column counts = {profile.column_counts}",
            )
        )
        conclusions.extend(_almost_block_conclusions(a, variant))
    return _report("prop4.10", a, met, note, conclusions)


def _minor_breaks(
    n: int, minor: Callable[[tuple[int, ...]], Fraction]
) -> Iterator[tuple[IndexSet, Fraction]]:
    """The supports of sizes below n whose ``minor`` (given the members)
    breaks the minor condition of Theorem 4.11, with that minor, in (size,
    lex) order; only the minors' signs are tested."""
    for size in range(1, n):
        last = size == n - 1
        for key in itertools.combinations(range(1, n + 1), size):
            m = minor(key)
            if m >= 0 if last else m < 0:
                yield IndexSet(n, key), m


def audit_thm_4_11(a: RatMatrix) -> AuditReport:
    """Z-matrices of E0 exact order 2: nonnegative minors up to order n-2,
    negative order-(n-1) minors, negative determinant, positive inverse
    diagonal, and positive Schur complements over every size-(n-1) block."""
    n = a.order
    if n < 3:
        return _report("thm4.11", a, False, f"order {n} < 3; statement needs n >= 3", [])
    z = is_Z(a)
    order_two, note = _hypothesis(a, Variant.E0, 2, "Z and E0 exact order 2")
    met = z and order_two
    note = f"Z: {z}; {note}"
    conclusions: list[Conclusion] = []
    if met:
        # every principal minor, det A included, each read once from one
        # row-cleared D A
        read_minor = _principal_minors(a)
        minors = {key: read_minor(key) for key in _support_members(n)}
        breaks = list(_minor_breaks(n, minors.__getitem__))
        small_bad = [f"det A_{alpha} = {minor}" for alpha, minor in breaks if len(alpha) <= n - 2]
        middle_bad = [f"det A_{alpha} = {minor}" for alpha, minor in breaks if len(alpha) == n - 1]
        conclusions.append(
            _conclusion("principal minors of order <= n-2 nonnegative", small_bad, "all nonnegative")
        )
        conclusions.append(
            _conclusion("principal minors of order n-1 negative", middle_bad, "all negative")
        )
        d = minors[tuple(range(1, n + 1))]
        conclusions.append(Conclusion("det A < 0", d < 0, f"det = {d}"))
        combos = list(itertools.combinations(range(1, n + 1), n - 1))
        if d == 0:
            conclusions.append(Conclusion("inverse exists with positive diagonal", False, "singular"))
        else:
            # Jacobi's identity (A^{-1})_ii = det A_{[n]-i} / det A; the
            # combinations leave out n, ..., 1 in turn
            diagonal = [minors[combo] / d for combo in reversed(combos)]
            conclusions.append(
                Conclusion(
                    "inverse exists with positive diagonal",
                    all(v > 0 for v in diagonal),
                    f"inverse diagonal = {[str(v) for v in diagonal]}",
                )
            )
        schur_bad = []
        for combo in combos:
            # det A / det A_aa by Schur's determinant identity
            schur = d / minors[combo] if minors[combo] else None
            if schur is None or schur <= 0:
                value = "block singular" if schur is None else f"A/A_aa = RatMatrix[{schur}]"
                schur_bad.append(f"alpha={IndexSet(n, combo)}: {value}")
        conclusions.append(
            _conclusion("Schur complement positive for every size-(n-1) alpha", schur_bad,
                        "all positive")
        )
    return _report("thm4.11", a, met, note, conclusions)


def _random_permutation(n: int, rng: random.Random) -> list[int]:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def _random_positive_diagonal(n: int, rng: random.Random) -> RatMatrix:
    return RatMatrix.diagonal(
        [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
    )


def audit_invariance(a: RatMatrix, seed: int) -> AuditReport:
    """Exact order is invariant under transpose, permutation similarity, and
    one-sided positive diagonal scaling; asserted for both variants on a
    seeded random permutation and diagonal."""
    n = a.order
    rng = random.Random(seed)
    sigma = _random_permutation(n, rng)
    d = _random_positive_diagonal(n, rng)
    transforms = [
        ("transpose", a.transpose()),
        ("permutation similarity", permutation_similarity(a, sigma)),
        ("left positive diagonal scaling", d @ a),
        ("right positive diagonal scaling", a @ d),
    ]
    conclusions: list[Conclusion] = []
    for variant in (Variant.E0, Variant.E):
        base = exact_order(a, variant)
        for name, transformed in transforms:
            other = exact_order(transformed, variant)
            conclusions.append(
                Conclusion(
                    f"{variant.value} exact order invariant under {name}",
                    other == base,
                    f"base = {base.describe()}, transformed = {other.describe()}",
                )
            )
    note = f"universal statement; permutation = {sigma}, diagonal = {[str(d[i, i]) for i in range(n)]}"
    return _report("invariance", a, True, note, conclusions)


def audit_n_eq_k_plus_1(a: RatMatrix, variant: Variant = Variant.E0) -> AuditReport:
    """Matrices of exact order n-1 (n >= 3) must have admissible diagonal
    signs and strictly negative off-diagonal entries."""
    n = a.order
    # classified before n >= 3 is tested, since the note prints the class
    order_n_1, note = _hypothesis(a, variant, n - 1, f"exact order n-1 = {n - 1} and n >= 3")
    met = n >= 3 and order_n_1
    conclusions: list[Conclusion] = []
    if met:
        off_ok = all(a[i, j] < 0 for i in range(n) for j in range(n) if i != j)
        conclusions.append(_diagonal_conclusion(a, variant))
        conclusions.append(
            Conclusion("all off-diagonal entries negative (Z form)", off_ok, "entrywise scan")
        )
    return _report("n=k+1", a, met, note, conclusions)


def audit_symmetric_copositive_equiv(a: RatMatrix, variant: Variant = Variant.E0) -> AuditReport:
    """For symmetric matrices the copositive and semimonotone exact-order
    classifications must agree in full (same k, same per-order profile)."""
    if not a.is_symmetric():
        raise NotSymmetricError("this audit requires a symmetric matrix")
    semi = exact_order(a, variant)
    cop = copositive_exact_order(a, variant)
    conclusions = [
        Conclusion(
            f"copositive and {variant.value} exact-order results identical",
            semi == cop,
            f"semimonotone = {semi.describe()}, copositive = {cop.describe()}",
        )
    ]
    return _report("sym-copositive", a, True, "symmetric input verified", conclusions)


def audit_nonclosure(a: RatMatrix, b: RatMatrix) -> AuditReport:
    """Classify two matrices, their sum, and their product, and record
    whether sum and product leave the E0-exact-order-2 class.

    Non-closure is an existential claim, so a pair whose sum or product
    stays in the class merely fails to witness it; the observation is
    reported in the conclusions but never flagged as a counterexample.
    """
    if a.order != b.order:
        raise ValueError("matrices must have equal order")
    ra = exact_order(a, Variant.E0)
    rb = exact_order(b, Variant.E0)
    met = ra.k == 2 and rb.k == 2
    note = f"A: {ra.describe()}; B: {rb.describe()}; requires both E0 exact order 2"
    conclusions: list[Conclusion] = []
    if met:
        rsum = exact_order(a + b, Variant.E0)
        rprod = exact_order(a @ b, Variant.E0)
        conclusions.append(
            Conclusion("A + B leaves E0 exact order 2", rsum.k != 2, f"sum: {rsum.describe()}")
        )
        conclusions.append(
            Conclusion("A B leaves E0 exact order 2", rprod.k != 2, f"product: {rprod.describe()}")
        )
    return AuditReport("nonclosure", met, note, tuple(conclusions), None)


def _nonclosure_entry(a: RatMatrix, b: Optional[RatMatrix]) -> AuditReport:
    if b is None:
        raise ValueError("needs a second matrix (--matrix-b)")
    return audit_nonclosure(a, b)


# Every audit behind one signature (a, variant, seed, b); audits ignore the
# arguments they do not use.
AUDITS: dict[str, Callable[[RatMatrix, Variant, int, Optional[RatMatrix]], AuditReport]] = {
    "thm3.4": lambda a, variant, seed, b: audit_thm_3x3_structure(a, variant),
    "thm3.5": lambda a, variant, seed, b: audit_thm_3x3_inverse(a),
    "prop4.10": lambda a, variant, seed, b: audit_prop_4_10(a, variant),
    "thm4.11": lambda a, variant, seed, b: audit_thm_4_11(a),
    "invariance": lambda a, variant, seed, b: audit_invariance(a, seed),
    "n=k+1": lambda a, variant, seed, b: audit_n_eq_k_plus_1(a, variant),
    "sym-copositive": lambda a, variant, seed, b: audit_symmetric_copositive_equiv(a, variant),
    "nonclosure": lambda a, variant, seed, b: _nonclosure_entry(a, b),
}

AUDIT_IDS = tuple(AUDITS)
