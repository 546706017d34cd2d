"""Linear complementarity instances: feasibility, enumeration solving, and
a sampling falsifier for the Q0 property.

LCP(q, A) asks for z >= 0 with w = q + Az >= 0 and z^T w = 0.  The solver
enumerates the 2^n complementary supports: for each alpha it solves
A_aa z_a = -q_a exactly, pads with zeros, and keeps the candidates whose z
and w come out nonnegative.  Complete for nondegenerate instances at desk
scale; supports with singular A_aa are skipped and reported, which can lose
solutions only on degenerate instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .feasibility import FeasibilityOutcome, phase1_feasible
from .ratcore import (
    IndexSet,
    RatMatrix,
    RatVector,
    SingularMatrixError,
    all_supports,
    inverse,
    principal_submatrix,
)


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
    solutions: tuple[LcpSolution, ...]
    singular_supports: tuple[IndexSet, ...]


def lcp_feasible(inst: LcpInstance) -> FeasibilityOutcome:
    """Is FEA(q, A) = {z >= 0 : q + Az >= 0} nonempty?  Exact, with witness."""
    n = inst.order
    g = [[-inst.a[i, j] for j in range(n)] for i in range(n)]
    ok, z = phase1_feasible(g, list(inst.q))
    if not ok:
        return FeasibilityOutcome(False)
    return FeasibilityOutcome(True, tuple(z))


def lcp_solve_enum(inst: LcpInstance) -> LcpEnumeration:
    """All complementary-support solutions, deduplicated.

    alpha = {} contributes z = 0 whenever q >= 0.  For nonempty alpha the
    candidate solves A_aa z_a = -q_a with z outside alpha fixed to zero, and
    survives iff z_a >= 0 and w = q + Az >= 0.
    """
    n = inst.order
    zero = Fraction(0)
    solutions: list[LcpSolution] = []
    singular: list[IndexSet] = []
    seen: set[RatVector] = set()

    def consider(z: RatVector, support: IndexSet) -> None:
        w = tuple(qi + wi for qi, wi in zip(inst.q, inst.a @ z))
        if all(v >= 0 for v in z) and all(v >= 0 for v in w) and z not in seen:
            seen.add(z)
            solutions.append(LcpSolution(z, w, support))

    if all(qi >= 0 for qi in inst.q):
        consider(tuple([zero] * n), IndexSet.empty(n))
    for alpha in all_supports(n):
        block = principal_submatrix(inst.a, alpha)
        try:
            block_inv = inverse(block)
        except SingularMatrixError:
            singular.append(alpha)
            continue
        q_alpha = tuple(inst.q[i] for i in alpha.zero_based())
        z_alpha = block_inv @ tuple(-v for v in q_alpha)
        if any(v < 0 for v in z_alpha):
            continue
        z = [zero] * n
        for pos, i in enumerate(alpha.zero_based()):
            z[i] = z_alpha[pos]
        consider(tuple(z), alpha)
    return LcpEnumeration(tuple(solutions), tuple(singular))


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
