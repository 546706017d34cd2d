"""Linear complementarity instances: feasibility, enumeration solving, and
a sampling falsifier for the Q0 property.

LCP(q, A) asks for z >= 0 with w = q + Az >= 0 and z^T w = 0.  The solver
sweeps the 2^n complementary supports alpha, each of which asks for
z_a >= 0 with A_aa z_a = -q_a and q_b + A_ba z_a >= 0, z = 0 off alpha.
The blocks A_aa do not depend on q, so they are factored once per matrix:
one fraction-free elimination of [B^T | I], for B = (L A)_aa with L the
LCM of A's denominators, gives p B^{-1}, or stops part-way on a singular B
with a vector y != 0 in ker B^T.  Every q, the enumeration's and each Q0
trial's, is then read against these factors.  Where A_aa is nonsingular,
z_a = -A_aa^{-1} q_a is the only candidate, and one integer product with q
decides the support.  Where it is singular, the Fredholm alternative
decides most supports with no LP: every z_a the support accepts has
A_aa z_a = -q_a, so y^T B z_a = 0 = -L y^T q_a, and y^T q_a != 0 proves
that it has none.  Only a q_a orthogonal to y goes to one exact phase-1
LP, which decides the polyhedron and gives its point.  One y is a
necessary condition at any rank, not a decision rule, so the LP stays.
Every solution has w = 0 on some support alpha with z = 0 off it, so the
sweep finds a solution iff one exists, singular blocks included.

Q0 sampling asks, for each q that no support solves, whether FEA(q, A) =
{z >= 0 : q + Az >= 0} is empty, and one LP per matrix answers most of
these questions (Cottle, Pang & Stone, The Linear Complementarity Problem,
1992, ch. 3).  Phase 1 on FEA(-1, A) = {z >= 0 : Az >= 1} either finds a
point z, and then A is an S-matrix and FEA(q, A) holds t z for every q, with
t = max(0, -min q), since q + t Az >= q + t 1 >= 0; or it returns Farkas
multipliers y >= 0, y != 0, with A^T y <= 0.  Then every z in FEA(q, A)
has 0 <= y^T (q + Az) = y^T q + (A^T y)^T z <= y^T q, so y^T q < 0 empties
FEA(q, A), and only a q with y^T q >= 0 needs its own LP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterator

from .feasibility import FeasibilityOutcome, phase1_feasible
from .ratcore import (
    IndexSet, RatMatrix, RatVector, _cleared, _failed_pass_kernel, _gauss_jordan, _scalar_cleared,
    _support_members,
)


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

    ``singular_supports`` is always empty: a singular block is decided
    exactly, by its kernel vector or by the LP (``_support_solutions``), so
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


_Block = tuple[
    tuple[int, ...], tuple[int, ...], int, list[list[int]], list[int], list[tuple[int, list[int]]]
]


@lru_cache(maxsize=1)
def _factor(a: RatMatrix) -> tuple[int, list[_Block]]:
    """L of ``_scalar_cleared`` and the factors of every principal block
    B = (L A)_aa in (size, lex) order, from one ``_gauss_jordan`` on
    [B^T | I] each.  The last matrix's factors are kept, so
    ``lcp_solve_enum`` and ``q0_falsify`` on one A factor it once; callers
    only read them.

    A block is (members, idx, d, N, y, off): alpha 1-based and 0-based,
    d = |p| for the last pivot p of the pass, N = -d B^{-1} (the pass leaves
    p (B^T)^{-1} = p (B^{-1})^T on the right), y empty, and the rows
    (L A)_{i,a} for every i outside alpha.  When B is singular, d is 0, N
    empty, and y the nonzero vector of ``ratcore._failed_pass_kernel`` on
    the stopped pass: B^T y = 0, so y^T B = 0.  Row swaps move no kernel.
    """
    n = a.order
    scale, rows = _scalar_cleared(a)
    blocks: list[_Block] = []
    for members in _support_members(n):
        idx = tuple(i - 1 for i in members)
        m = len(idx)
        work = [[rows[i][j] for i in idx] + [int(j == k) for k in idx] for j in idx]
        d, neg_inv, kernel = 0, [], []
        if _gauss_jordan(work):
            p = work[0][0]
            s = -1 if p > 0 else 1
            d = abs(p)
            neg_inv = [[s * row[m + i] for row in work] for i in range(m)]
        else:
            kernel = _failed_pass_kernel(work)
        off = [(i, [rows[i][j] for j in idx]) for i in range(n) if i + 1 not in members]
        blocks.append((members, idx, d, neg_inv, kernel, off))
    return scale, blocks


def _support_solutions(
    a: RatMatrix, factors: tuple[int, list[_Block]], q: RatVector
) -> Iterator[tuple[RatVector, IndexSet]]:
    """One solution z of LCP(q, A) per complementary support that has one,
    with the support, in (size, lex) order, read against ``_factor(a)``.

    alpha = {} contributes z = 0 whenever q >= 0.  Otherwise q is cleared
    by the LCM c of its denominators to the integers q' = c q, and a
    nonsingular block gives u = N q'_a, so z_a = L u / (d c) >= 0 iff
    u >= 0, and d c w_i = d q'_i + (L A)_ia u off alpha.  A singular block
    with y^T B = 0 is skipped when y^T q'_a != 0: every point of its
    system has A_aa z_a = -q_a, as the equality's two halves below say,
    and then 0 = y^T B z_a = -L y^T q_a = -(L / c) y^T q'_a.  Otherwise it
    goes to ``phase1_feasible``: z_a >= 0 with A_aa z_a <= -q_a and
    -A_ia z_a <= q_i for every i (the reverse half of the equality on
    alpha, w_b >= 0 off it), on the rational rows: their tableau fixes
    Bland's pivots and so the point a singular support yields, which the
    ``lcp`` golden digests pin.  z outside alpha is zero.
    """
    n = a.order
    zero = Fraction(0)
    if all(qi >= 0 for qi in q):
        yield tuple([zero] * n), IndexSet.empty(n)
    scale, blocks = factors
    c = lcm(*[v.denominator for v in q])
    qc = _cleared(q, c)
    for members, idx, d, neg_inv, kernel, off in blocks:
        qa = [qc[j] for j in idx]
        if d:
            u = [sum(map(mul, row, qa)) for row in neg_inv]
            if min(u) < 0 or any(d * qc[i] + sum(map(mul, row, u)) < 0 for i, row in off):
                continue
            z_alpha = [Fraction(scale * v, d * c) for v in u]
        elif sum(map(mul, kernel, qa)):
            continue
        else:
            a_alpha = [[row[j] for j in idx] for row in a.entries]  # A_{i,alpha}, every i
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
    for z, support in _support_solutions(inst.a, _factor(inst.a), inst.q):
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


def _s_certificate(a: RatMatrix) -> tuple[bool, list]:
    """Phase 1 on FEA(-1, A): (True, z) with z >= 0 and Az >= 1 when A is an
    S-matrix, else (False, y) with integer y >= 0, y != 0 and A^T y <= 0."""
    return phase1_feasible([[-v for v in row] for row in a.entries], [Fraction(-1)] * a.order)


def q0_falsify(a: RatMatrix, trials: int, seed: int) -> Q0Report:
    """Sample rational q vectors and demand that feasible instances solve.

    The q stream is a deterministic function of the seed: components are
    p/r with |p| <= Q0_NUMERATOR_BOUND and 1 <= r <= Q0_DENOMINATOR_BOUND.
    A violation is a q with FEA nonempty but no solution.  Each trial sweeps
    its supports up to the first solving one; a solution is a feasible
    point, so ``lcp_feasible`` runs only on trials that no support solves
    and that the matrix's one certificate does not decide.  The first
    unsolved trial computes that certificate (``_s_certificate``): a z >= 0
    with Az >= 1 makes every q feasible (the module docstring has the
    lemma), and otherwise Farkas multipliers y >= 0, y != 0, with
    A^T y <= 0 make every q with y^T q < 0 infeasible.
    Raises ValueError when ``trials`` is negative.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    n = a.order
    factors = _factor(a)
    rng = random.Random(seed)
    feasible_count = 0
    solved_count = 0
    violations: list[RatVector] = []
    certificate = None
    for _ in range(trials):
        q = tuple(
            Fraction(
                rng.randint(-Q0_NUMERATOR_BOUND, Q0_NUMERATOR_BOUND),
                rng.randint(1, Q0_DENOMINATOR_BOUND),
            )
            for _ in range(n)
        )
        if next(_support_solutions(a, factors, q), None) is not None:
            feasible_count += 1
            solved_count += 1
            continue
        if certificate is None:
            certificate = _s_certificate(a)
        s_matrix, y = certificate
        if s_matrix or (sum(map(mul, y, q)) >= 0 and lcp_feasible(LcpInstance(q, a)).feasible):
            feasible_count += 1
            violations.append(q)
    return Q0Report(trials, feasible_count, solved_count, tuple(violations))
