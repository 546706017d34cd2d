"""Linear complementarity instances: feasibility, enumeration solving, and
a sampling falsifier for the Q0 property.

LCP(q, A) asks for z >= 0 with w = q + Az >= 0 and z^T w = 0.  The solver
enumerates the 2^n complementary supports alpha, each of which asks for
z_a >= 0 with A_aa z_a = -q_a and q_b + A_ba z_a >= 0, z = 0 off alpha.
Where A_aa is nonsingular, z_a = -A_aa^{-1} q_a is the only candidate, and
one fraction-free solve on the row-cleared [A | q] decides the support.
Where it is singular, one exact phase-1 LP decides the polyhedron and
gives its point.  Every solution has w = 0 on some support alpha with
z = 0 off it, so the sweep finds a solution iff one exists, singular
blocks included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .feasibility import FeasibilityOutcome, phase1_feasible
from .ratcore import IndexSet, RatMatrix, RatVector, _cleared_rows, _gauss_jordan, _support_members


@dataclass(frozen=True)
class LcpInstance:
    q: RatVector
    a: RatMatrix

    def __post_init__(self) -> None:
        if len(self.q) != self.a.order:
            raise ValueError("q length must match the matrix order")

    @property
    def order(self) -> int:
        return self.a.order


@dataclass(frozen=True)
class LcpSolution:
    z: RatVector
    w: RatVector
    support: IndexSet

    def satisfies(self, inst: LcpInstance) -> bool:
        """Re-validate the three defining conditions by direct substitution."""
        if len(self.z) != inst.order:
            return False
        w = tuple(qi + wi for qi, wi in zip(inst.q, inst.a @ self.z))
        return (
            w == self.w
            and all(v >= 0 for v in self.z)
            and all(v >= 0 for v in w)
            and sum((zi * wi for zi, wi in zip(self.z, w)), Fraction(0)) == 0
        )


@dataclass(frozen=True)
class LcpEnumeration:
    """The solutions of one instance, deduplicated by z.

    ``singular_supports`` is always empty: singular blocks go to the LP, so
    none is skipped.  The field stays because benchmark tracing reads it.
    """

    solutions: tuple[LcpSolution, ...]
    singular_supports: tuple[IndexSet, ...] = ()


def lcp_feasible(inst: LcpInstance) -> FeasibilityOutcome:
    """Is FEA(q, A) = {z >= 0 : q + Az >= 0} nonempty?  Exact, with witness."""
    n = inst.order
    g = [[-inst.a[i, j] for j in range(n)] for i in range(n)]
    ok, z = phase1_feasible(g, list(inst.q))
    if not ok:
        return FeasibilityOutcome(False)
    return FeasibilityOutcome(True, tuple(z))


def _support_solutions(inst: LcpInstance) -> Iterator[tuple[RatVector, IndexSet]]:
    """One solution z per complementary support that has one, with the
    support, in (size, lex) order.

    alpha = {} contributes z = 0 whenever q >= 0.  For nonempty alpha the
    rows of M = D [A | q] (D the positive row scales of ``_cleared_rows``,
    which change no z and no sign of w) give [M_aa | -M_aq] to
    ``_gauss_jordan``.  A nonsingular block leaves p [I | z_a] with p on
    the diagonal (the return value is p times the sign of the row swaps),
    and the support solves iff p z_a >= 0 and p (M_bq + M_ba z_a) >= 0 off
    alpha, both read against the sign of p.  A singular block goes to
    ``phase1_feasible``: z_a >= 0 with A_aa z_a <= -q_a and -A_ia z_a <= q_i
    for every i (the reverse half of the equality on alpha, w_b >= 0 off
    it), on the rational rows, so Bland's rule meets the tableau it always
    did.  z outside alpha is zero.
    """
    n = inst.order
    q = inst.q
    zero = Fraction(0)
    if all(qi >= 0 for qi in q):
        yield tuple([zero] * n), IndexSet.empty(n)
    rows = inst.a.entries
    _, m = _cleared_rows(row + (qi,) for row, qi in zip(rows, q))
    for members in _support_members(n):
        idx = [i - 1 for i in members]
        work = [[m[i][j] for j in idx] + [-m[i][n]] for i in idx]
        if _gauss_jordan(work):
            p = work[0][0]
            x = [row[-1] for row in work]  # p z_a
            if any(v * p < 0 for v in x):
                continue
            if any(
                (p * m[i][n] + sum(m[i][j] * v for j, v in zip(idx, x))) * p < 0
                for i in range(n)
                if i + 1 not in members
            ):
                continue
            z_alpha = [Fraction(v, p) for v in x]
        else:
            a_alpha = [[row[j] for j in idx] for row in rows]  # A_{i,alpha}, every i
            g = [a_alpha[i] for i in idx] + [[-v for v in row] for row in a_alpha]
            h = [-q[i] for i in idx] + list(q)
            ok, z_alpha = phase1_feasible(g, h)
            if not ok:
                continue
        z = [zero] * n
        for i, v in zip(idx, z_alpha):
            z[i] = v
        yield tuple(z), IndexSet(n, members)


def lcp_solve_enum(inst: LcpInstance) -> LcpEnumeration:
    """All complementary-support solutions, deduplicated by z, in the
    (size, lex) order of their first support."""
    solutions: list[LcpSolution] = []
    seen: set[RatVector] = set()
    for z, support in _support_solutions(inst):
        if z not in seen:
            seen.add(z)
            w = tuple(qi + wi for qi, wi in zip(inst.q, inst.a @ z))
            solutions.append(LcpSolution(z, w, support))
    return LcpEnumeration(tuple(solutions))


@dataclass(frozen=True)
class Q0Report:
    """Outcome of sampled Q0 falsification.

    This is a falsifier, never a prover: "no violation in N trials" is
    evidence, not a certificate that the matrix is Q0.
    """

    trials: int
    feasible_count: int
    solved_count: int
    violations: tuple[RatVector, ...]
    note: str = "sampling can only falsify the Q0 property, never prove it"

    @property
    def violated(self) -> bool:
        return bool(self.violations)


Q0_NUMERATOR_BOUND = 9
Q0_DENOMINATOR_BOUND = 4


def q0_falsify(a: RatMatrix, trials: int, seed: int) -> Q0Report:
    """Sample rational q vectors and demand that feasible instances solve.

    The q stream is a deterministic function of the seed: components are
    p/r with |p| <= Q0_NUMERATOR_BOUND and 1 <= r <= Q0_DENOMINATOR_BOUND.
    A violation is a q with FEA nonempty but no solution.  Each trial sweeps
    its supports up to the first solving one; a solution is a feasible
    point, so ``lcp_feasible`` runs only on trials that no support solves.
    Raises ValueError when ``trials`` is negative.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    n = a.order
    rng = random.Random(seed)
    feasible_count = 0
    solved_count = 0
    violations: list[RatVector] = []
    for _ in range(trials):
        q = tuple(
            Fraction(
                rng.randint(-Q0_NUMERATOR_BOUND, Q0_NUMERATOR_BOUND),
                rng.randint(1, Q0_DENOMINATOR_BOUND),
            )
            for _ in range(n)
        )
        inst = LcpInstance(q, a)
        if next(_support_solutions(inst), None) is not None:
            feasible_count += 1
            solved_count += 1
        elif lcp_feasible(inst).feasible:
            feasible_count += 1
            violations.append(q)
    return Q0Report(trials, feasible_count, solved_count, tuple(violations))
