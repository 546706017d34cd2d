"""Exact feasibility oracles for homogeneous sign systems.

The class memberships downstream all reduce to questions of the form
"is there y > 0 with My < 0 (or My <= 0)?" on a principal block M.  By
positive homogeneity these are equivalent to the closed systems

    strict:      y >= 1,  My <= -1
    semistrict:  y >= 1,  My <=  0

which are decided exactly.  The decision and the certificate are two
steps.  ``_witness`` decides a block from its rows and returns some raw
witness: order 2 has a closed form by interval arithmetic; every other
order first tries O(n^2) sign shortcuts, which settle every order-1 system,
and then a phase-1 simplex with Bland's pivoting rule (termination under
degeneracy, no tolerances anywhere) on the closed system.  The simplex
pivots an integer tableau fraction-free through ``ratcore._pivot``, the one
exact kernel that ``det`` and ``inverse`` use too.  ``_normalize_certificate``
scales a raw witness onto the closed system above; it runs only where a
certificate is read: behind the public oracles, and for the first failing
support of an exact-order sweep, whose other supports need only the
decision.

Everything here is pure and stateless; callers may evaluate many systems
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .ratcore import RatMatrix, RatVector, _cleared, _pivot

_Rows = Sequence[Sequence[Fraction]]


class Strictness(Enum):
    STRICT = "strict"          # seek y > 0 with My < 0
    SEMISTRICT = "semistrict"  # seek y > 0 with My <= 0


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    certificate: Optional[RatVector] = None


# ---------------------------------------------------------------------------
# phase-1 simplex for {x >= 0 : Gx <= h}


def phase1_feasible(g_rows: Sequence[Sequence[Fraction]], h: Sequence[Fraction]) -> tuple[bool, Optional[list[Fraction]]]:
    """Decide whether {x >= 0 : Gx <= h} is nonempty, exactly.

    Minimizes the sum of artificial variables with Bland's rule; the system
    is feasible iff the optimum is exactly zero.  Returns a witness x when
    feasible.

    The tableau, objective row included, is the rational one times the
    common denominator of G and h, and is pivoted fraction-free
    (``ratcore._pivot``).  Each of its rows stays a positive multiple of the
    rational row, so every sign test, ratio and tie-break matches rational
    pivoting, and a basic x_j reads off as its right-hand side over the
    last pivot.
    """
    nrows = len(g_rows)
    nvars = len(g_rows[0]) if nrows else 0
    if all(hi >= 0 for hi in h):
        return True, [Fraction(0)] * nvars

    scale = lcm(*(v.denominator for row in g_rows for v in row), *(v.denominator for v in h))
    rhs = _cleared(h, scale)
    nart = sum(v < 0 for v in rhs)
    ncols = nvars + nrows + nart
    rows: list[list[int]] = []
    basis: list[int] = []
    # reduced-cost row for the phase-1 objective (cost 1 on artificials)
    zrow = [0] * (nvars + nrows) + [scale] * nart + [0]
    art = nvars + nrows
    for i in range(nrows):
        sign = -1 if rhs[i] < 0 else 1
        row = [sign * v for v in _cleared(g_rows[i], scale)]
        row += [0] * (ncols - nvars) + [sign * rhs[i]]
        row[nvars + i] = sign * scale
        if sign < 0:
            row[art] = scale
            basis.append(art)
            art += 1
            zrow = [z - v for z, v in zip(zrow, row)]
        else:
            basis.append(nvars + i)
        rows.append(row)
    rows.append(zrow)

    prev = 1
    while True:
        zrow = rows[nrows]
        enter = next((j for j in range(ncols) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(nrows):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / coeff against rhs_leave / coeff_leave, both coeffs > 0
                here = rows[i][ncols] * rows[leave][enter]
                best = rows[leave][ncols] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded; no leaving row means a bug")
        prev = _pivot(rows, leave, enter, prev)
        basis[leave] = enter

    if rows[nrows][ncols] != 0:
        return False, None
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(rows[i][ncols], prev)
    return True, x


# ---------------------------------------------------------------------------
# the decision and the certificate


def _order2(rows: _Rows, strict: bool) -> Optional[RatVector]:
    """Closed form by interval arithmetic: some y = (1, t), or None."""
    lo_val, lo_open = Fraction(0), True  # y = (1, t) with t > 0
    hi_val: Optional[Fraction] = None
    hi_open = False
    for p, q in rows:
        if q == 0:
            ok = p < 0 if strict else p <= 0
            if not ok:
                return None
        elif q < 0:
            bound = -p / q
            if bound > lo_val or (bound == lo_val and strict):
                lo_val, lo_open = bound, strict if bound > lo_val else (lo_open or strict)
        else:
            bound = -p / q
            if hi_val is None or bound < hi_val or (bound == hi_val and strict):
                hi_open = strict if hi_val is None or bound < hi_val else (hi_open or strict)
                hi_val = bound

    if hi_val is None:
        t = lo_val + 1
    elif lo_val < hi_val:
        t = (lo_val + hi_val) / 2
    elif lo_val == hi_val and not lo_open and not hi_open and lo_val > 0:
        t = lo_val
    else:
        return None
    return Fraction(1), t


def _witness(rows: _Rows, strict: bool) -> Optional[RatVector]:
    """Decide the system of a square block given by its rows: some raw
    y > 0 with My < 0 (``strict``) or My <= 0, or None when there is none.

    Order 2 has a closed form.  Otherwise two exact O(n^2) shortcuts come
    first, and one of them always applies at order 1: a row with no negative
    entry pins (My)_i >= 0 for y > 0 (> 0 when the row is nonzero), settling
    infeasibility, and the all-ones vector is a witness whenever the row
    sums already have the right signs.  The rest goes to the simplex on the
    closed system u >= 0, Mu <= shift - row sums (u = y - 1), whose witness
    u + 1 already satisfies y >= 1, My <= shift.
    """
    n = len(rows)
    if n == 2:
        return _order2(rows, strict)
    for row in rows:
        if all(v >= 0 for v in row) and (strict or any(v > 0 for v in row)):
            return None
    sums = [sum(row, Fraction(0)) for row in rows]
    if all(s < 0 for s in sums) if strict else all(s <= 0 for s in sums):
        return (Fraction(1),) * n
    shift = -1 if strict else 0
    ok, u = phase1_feasible(rows, [shift - s for s in sums])
    return tuple(ui + 1 for ui in u) if ok else None


def _normalize_certificate(rows: _Rows, y: RatVector, strict: bool) -> RatVector:
    """Scale a raw witness (y > 0, My < 0 or <= 0) onto y >= 1, My <= -1 / 0.

    A simplex witness already lies there, so it comes back unchanged.
    """
    factors = [Fraction(1)]
    factors.extend(Fraction(1) / yi for yi in y)
    if strict:
        image = (sum((a * yi for a, yi in zip(row, y)), Fraction(0)) for row in rows)
        factors.extend(Fraction(-1) / wi for wi in image)
    t = max(factors)
    return tuple(t * yi for yi in y)


# ---------------------------------------------------------------------------
# public oracles


def _decide(m: RatMatrix, strictness: Strictness) -> FeasibilityOutcome:
    m._require_square()
    strict = strictness is Strictness.STRICT
    y = _witness(m.entries, strict)
    if y is None:
        return FeasibilityOutcome(False)
    return FeasibilityOutcome(True, _normalize_certificate(m.entries, y, strict))


def feasible_strict(m: RatMatrix) -> FeasibilityOutcome:
    """Is there y > 0 with My < 0?  Certificate satisfies y >= 1, My <= -1."""
    return _decide(m, Strictness.STRICT)


def feasible_semistrict(m: RatMatrix) -> FeasibilityOutcome:
    """Is there y > 0 with My <= 0?  Certificate satisfies y >= 1, My <= 0."""
    return _decide(m, Strictness.SEMISTRICT)
