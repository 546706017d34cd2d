"""Linear complementarity instances: feasibility, enumeration solving, and
a sampling falsifier for the Q0 property.

LCP(q, A) asks for z >= 0 with w = q + Az >= 0 and z^T w = 0.  The solver
enumerates the 2^n complementary supports: for each alpha one exact
phase-1 LP decides the polyhedron {z_a >= 0 : A_aa z_a = -q_a,
q_b + A_ba z_a >= 0} and its point, padded with zeros, is a solution.
Every solution has w = 0 on some support alpha with z = 0 off it, so the
sweep finds a solution iff one exists, singular blocks A_aa included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .feasibility import FeasibilityOutcome, phase1_feasible
from .ratcore import IndexSet, RatMatrix, RatVector, all_supports


@dataclass(frozen=True)
class LcpInstance:
    q: RatVector
    a: RatMatrix

    def __post_init__(self) -> None:
        self.a._require_square()
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

    ``singular_supports`` is always empty: singular blocks go to the LP like
    every other support, so none is skipped.  The field stays because
    benchmark tracing reads it.
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


def lcp_solve_enum(inst: LcpInstance) -> LcpEnumeration:
    """All complementary-support solutions, deduplicated by z, in the
    (size, lex) order of their first support.

    alpha = {} contributes z = 0 whenever q >= 0.  For nonempty alpha,
    ``phase1_feasible`` decides z_a >= 0 with A_aa z_a <= -q_a and
    -A_ia z_a <= q_i for every i (the reverse half of the equality on
    alpha, w_b >= 0 off it); z outside alpha is zero.
    """
    n = inst.order
    zero = Fraction(0)
    solutions: list[LcpSolution] = []
    seen: set[RatVector] = set()

    def consider(z: RatVector, support: IndexSet) -> None:
        if z not in seen:
            seen.add(z)
            w = tuple(qi + wi for qi, wi in zip(inst.q, inst.a @ z))
            solutions.append(LcpSolution(z, w, support))

    if all(qi >= 0 for qi in inst.q):
        consider(tuple([zero] * n), IndexSet.empty(n))
    rows = inst.a.entries
    for alpha in all_supports(n):
        idx = alpha.zero_based()
        a_alpha = [[row[j] for j in idx] for row in rows]  # A_{i,alpha}, every i
        g = [a_alpha[i] for i in idx] + [[-v for v in row] for row in a_alpha]
        h = [-inst.q[i] for i in idx] + list(inst.q)
        ok, z_alpha = phase1_feasible(g, h)
        if not ok:
            continue
        z = [zero] * n
        for i, v in zip(idx, z_alpha):
            z[i] = v
        consider(tuple(z), alpha)
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


def q0_falsify(
    a: RatMatrix,
    trials: int,
    seed: int,
    numerator_bound: int = 9,
    denominator_bound: int = 4,
) -> Q0Report:
    """Sample rational q vectors and demand that feasible instances solve.

    The q stream is a deterministic function of the seed: components are
    p/r with p in [-numerator_bound, numerator_bound] and r in
    [1, denominator_bound].  A violation is a q with FEA nonempty but no
    enumerated solution.  Raises ValueError when ``trials`` is negative.
    """
    a._require_square()
    if trials < 0:
        raise ValueError("trials must be >= 0")
    n = a.order
    rng = random.Random(seed)
    feasible_count = 0
    solved_count = 0
    violations: list[RatVector] = []
    for _ in range(trials):
        q = tuple(
            Fraction(rng.randint(-numerator_bound, numerator_bound), rng.randint(1, denominator_bound))
            for _ in range(n)
        )
        inst = LcpInstance(q, a)
        if not lcp_feasible(inst).feasible:
            continue
        feasible_count += 1
        if lcp_solve_enum(inst).solutions:
            solved_count += 1
        else:
            violations.append(q)
    return Q0Report(trials, feasible_count, solved_count, tuple(violations))
