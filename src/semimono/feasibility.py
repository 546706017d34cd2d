"""Exact feasibility oracles for homogeneous sign systems.

The class memberships downstream all reduce to questions of the form
"is there y > 0 with My < 0 (or My <= 0)?" on a principal block M.  By
positive homogeneity these are equivalent to the closed systems

    strict:      y >= 1,  My <= -1
    semistrict:  y >= 1,  My <=  0

which are decided exactly, with no tolerance anywhere.  Each account
lives at its function: ``_witness`` decides a block and returns a raw
witness, from sign shortcuts, the order-2 closed form or
``phase1_feasible``; ``_pair_fails`` reads a pair in place;
``_minimal_witness`` decides a minimal support with no simplex;
``_normalize_certificate`` scales a witness onto the closed system; and
``_certified_exact_order`` proves a search hit by substituted
certificates.  The sweeps that ask these questions are in ``classify``.

Everything here is pure and stateless; callers may evaluate many systems
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .ratcore import (
    RatMatrix,
    RatVector,
    _block,
    _cleared,
    _gauss_jordan,
    _int_det,
    _pivot,
    _support_members,
)

_Rows = Sequence[Sequence[Fraction]]
# rows a sign test reads: rational, or row-cleared integer
_AnyRows = Sequence[Sequence[Union[Fraction, int]]]


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    certificate: Optional[RatVector] = None


# ---------------------------------------------------------------------------
# phase-1 simplex for {x >= 0 : Gx <= h}


def phase1_feasible(g_rows: Sequence[Sequence[Fraction]], h: Sequence[Fraction]) -> tuple[bool, list]:
    """Decide whether {x >= 0 : Gx <= h} is nonempty, exactly.

    Minimizes the sum of artificial variables with Bland's rule, which
    terminates under degeneracy; the system is feasible iff the optimum is
    exactly zero.  Returns a witness x when feasible, and else Farkas
    multipliers z >= 0 with G^T z >= 0 and h^T z < 0: the final reduced
    costs of the slack columns.  (With duals pi and row signs s, the slack
    of row i costs -pi_i s_i, the column of x_j costs (G^T z)_j, both >= 0
    at the optimum, and -h^T z is the positive optimum.)  Rational G and h
    give integer multipliers, a positive multiple of the rational ones.

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
        return False, rows[nrows][nvars:nvars + nrows]
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

    Order 2 has a closed form, which needs Fraction rows (it divides).
    Otherwise, on rational or integer rows, two exact O(n^2) shortcuts come
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
    sums = [sum(row) for row in rows]
    if all(s < 0 for s in sums) if strict else all(s <= 0 for s in sums):
        return (Fraction(1),) * n
    shift = -1 if strict else 0
    ok, u = phase1_feasible(rows, [shift - s for s in sums])
    return tuple(ui + 1 for ui in u) if ok else None


def _pair_fails(rows: _AnyRows, i: int, j: int, strict: bool) -> bool:
    """Does the 2x2 block on rows and columns i < j (from 0) fail, given
    that its 1x1 blocks pass, read where it stands?

    With a11, a22 >= 0 (> 0 when not ``strict``), it fails iff a12 < 0,
    a21 < 0 and a11 a22 < a12 a21 (<= when not ``strict``).
    """
    row_i, row_j = rows[i], rows[j]
    a12, a21 = row_i[j], row_j[i]
    if a12 >= 0 or a21 >= 0:
        return False
    diag, off = row_i[i] * row_j[j], a12 * a21
    return diag < off if strict else diag <= off


def _positive_kernel(columns: Iterable[Sequence[int]]) -> Optional[list[int]]:
    """For the columns of adj(B), B singular: a vector y > 0 spanning
    ker B when ker B is one-dimensional and has one, else None.

    B adj(B) = det(B) I = 0, and adj(B) is nonzero iff B has rank n - 1, so
    ker B is one-dimensional exactly when some column is nonzero, and then
    that column spans it.
    """
    for col in columns:
        if any(col):
            if all(v > 0 for v in col):
                return list(col)
            return [-v for v in col] if all(v < 0 for v in col) else None
    return None


def _adjugate_column(rows: Sequence[Sequence[int]], j: int) -> list[int]:
    """Column j of the adjugate of a square integer array: the cofactors
    (-1)^(i+j) det(B without row j and column i)."""
    others = [row for k, row in enumerate(rows) if k != j]
    return [
        (-1) ** (i + j) * _int_det([row[:i] + row[i + 1:] for row in others])
        for i in range(len(rows))
    ]


def _minimal_witness(
    rows: Sequence[Sequence[int]], members: tuple[int, ...], strict: bool
) -> Optional[list[int]]:
    """The witness of a *minimal* support, on integer rows: y > 0 with
    B y < 0 (``strict``) or B y <= 0 for the principal block B on
    ``members``, or None when B passes, given that every proper principal
    block of B passes.  So the block fails iff the result is not None.

    The screen behind ``has_exact_order`` asks only such blocks: it
    decides a support only after every smaller support has passed.  There the system needs no
    simplex.

    *Lemma.*  Let B be nonsingular with no proper principal block failing.
    Then B fails iff x = -B^{-1} 1 > 0.  If x > 0, it is a witness, since
    Bx = -1.  Conversely, take a witness y > 0 (By < 0 when ``strict``,
    By <= 0 otherwise), any b >= 0 with b != 0, and x_b = -B^{-1} b.
    Suppose x_b has a negative entry, and follow z = y + t x_b from t = 0
    until a coordinate first reaches 0.  Bz = By - t b keeps the failing
    sign, z >= 0, and z != 0, since z = 0 would give By = t b >= 0 with
    t b != 0.  So z on its support solves the system of a proper principal
    block, against minimality.  Hence -B^{-1} >= 0, and as B^{-1} has no
    zero row, x = -B^{-1} 1 > 0.  This is the almost-semimonotone inverse
    property (Tsatsomeros and Wendler, Linear Algebra Appl. 2019).

    *Singular B, strict system (E0).*  It has no solution: a witness y and
    a kernel vector v with a negative entry give z = y + t v, as above,
    with Bz = By < 0, so z != 0 and a proper block fails.

    *Singular B, semistrict system (E).*  It has a solution iff ker B is
    one-dimensional and spanned by a vector y > 0, which is then the
    witness (By = 0).  Conversely, for a witness y, a kernel vector v not
    parallel to y would make a proper block fail along y + t v, so
    ker B = span(y) and By = 0.

    A nonsingular B gives y = |det B| x, so B y = -|det B| 1.  At order 3
    that is y = -sign(det B) adj(B) 1, read in place in closed form, which
    stays because every support the screen decides above order 2 at n = 4,
    k = 2 has order 3: solved by elimination instead, the ``conj2-free``
    benchmark read ``wall_s`` 0.58-0.59 s against 0.43 s (2-core Xeon,
    CPython 3.11).  At other orders, one fraction-free solve of [B | -1]
    (``ratcore._gauss_jordan``) leaves p [I | x] with p on the diagonal;
    its return value is det B, which is p up to the sign of the row swaps,
    so y is the last column times the sign of the diagonal (y = 1 for a
    1x1 block a < 0).  A singular semistrict block takes the columns of
    adj(B) to ``_positive_kernel``, and its witness has B y = 0.
    """
    n = len(members)
    if n == 3:
        i, j, k = members[0] - 1, members[1] - 1, members[2] - 1
        ri, rj, rk = rows[i], rows[j], rows[k]
        a, b, c = ri[i], ri[j], ri[k]
        d, e, f = rj[i], rj[j], rj[k]
        g, h, m = rk[i], rk[j], rk[k]
        adj = (
            (e * m - f * h, c * h - b * m, b * f - c * e),
            (f * g - d * m, a * m - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
        if det:
            y = [-sum(r) for r in adj] if det > 0 else [sum(r) for r in adj]
            return y if min(y) > 0 else None
        columns: Iterable[Sequence[int]] = zip(*adj)
    else:
        block = _block(rows, members)
        solve = [row + [-1] for row in block]
        if _gauss_jordan(solve):
            p = solve[0][0]
            y = [row[n] if p > 0 else -row[n] for row in solve]
            return y if min(y) > 0 else None
        columns = (_adjugate_column(block, j) for j in range(n))
    return None if strict else _positive_kernel(columns)


def _member_certificate(block: Sequence[Sequence[int]], strict: bool) -> Optional[list[int]]:
    """A certificate that the system of the integer block B has no
    solution: z >= 0 with B^T z >= 0 and z != 0 (``strict``) or
    B^T z != 0, or None when none is found.

    By Ville's transposition theorem (1938), there is no y > 0 with By < 0
    iff some z >= 0, z != 0 has B^T z >= 0, and no y > 0 with By <= 0 iff
    some z >= 0 has B^T z >= 0, B^T z != 0; substituted, z^T B y would be
    both < 0 (<= 0) and >= 0 (> 0).  The sources, in turn: z = e_i for a
    row with no negative entry (a nonzero one when not ``strict``); at
    order 2, z = (b22, -b12), with B^T z = (det B, 0); else the Farkas
    multipliers of ``phase1_feasible`` on the closed system of
    ``_witness``, u >= 0, B u <= shift - row sums, whose h^T z < 0 is
    z != 0 (``strict``, shift -1) or B^T z != 0 (shift 0).
    """
    n = len(block)
    for i, row in enumerate(block):
        if min(row) >= 0 and (strict or any(row)):
            return [int(j == i) for j in range(n)]
    if n == 2:
        return [block[1][1], -block[0][1]]
    shift = -1 if strict else 0
    feasible, z = phase1_feasible(block, [shift - sum(row) for row in block])
    return None if feasible else z


def _certifies_member(
    block: Sequence[Sequence[int]], z: Optional[Sequence[int]], strict: bool
) -> bool:
    """Does z show by substitution that the system of ``block`` has no
    solution (``_member_certificate``)?"""
    if z is None or len(z) != len(block):
        return False
    image = [sum(map(mul, col, z)) for col in zip(*block)]
    return min(z) >= 0 and min(image) >= 0 and any(z if strict else image)


def _certifies_failure(
    block: Sequence[Sequence[int]], y: Optional[Sequence[int]], strict: bool
) -> bool:
    """Does y solve the system of ``block`` by substitution: y > 0 with
    block y < 0 (``strict``) or <= 0?"""
    if y is None or len(y) != len(block):
        return False
    image = [sum(map(mul, row, y)) for row in block]
    return min(y) > 0 and (max(image) < 0 if strict else max(image) <= 0)


def _certified_exact_order(rows: Sequence[Sequence[int]], k: int, strict: bool) -> bool:
    """Is exact order k of the integer rows proven by substituted
    certificates: a member certificate for every support of size <= n-k,
    and a witness for every support of size n-k+1?

    That proves it: no block of order <= n-k has a failing support, so all
    of them belong to the class, and every block of order n-k+1 fails
    itself, so no larger block belongs (a block holding a failing support
    fails).  Every support of size n-k+1 is then minimal, so its witness
    is ``_minimal_witness``'s.  The supports of size n-k alone would not
    do: a smaller failing support can sit inside a block whose own system
    has no solution.  The certificates are computed on the rows and only
    their substitution decides, so a wrong certificate is refused, never
    trusted.
    """
    n = len(rows)
    for members in _support_members(n):
        if len(members) > n - k + 1:
            break
        block = _block(rows, members)
        if len(members) <= n - k:
            ok = _certifies_member(block, _member_certificate(block, strict), strict)
        else:
            ok = _certifies_failure(block, _minimal_witness(rows, members, strict), strict)
        if not ok:
            return False
    return True


def _normalize_certificate(rows: _Rows, y: RatVector, strict: bool) -> RatVector:
    """Scale a raw witness (y > 0, My < 0 or <= 0) onto y >= 1, My <= -1 / 0.

    It runs only where a certificate is read: behind the public oracles and
    for the first failing support of ``exact_order``.  A simplex witness
    already lies there, so it comes back unchanged.
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


def _decide(m: RatMatrix, strict: bool) -> FeasibilityOutcome:
    y = _witness(m.entries, strict)
    if y is None:
        return FeasibilityOutcome(False)
    return FeasibilityOutcome(True, _normalize_certificate(m.entries, y, strict))


def feasible_strict(m: RatMatrix) -> FeasibilityOutcome:
    """Is there y > 0 with My < 0?  Certificate satisfies y >= 1, My <= -1."""
    return _decide(m, strict=True)


def feasible_semistrict(m: RatMatrix) -> FeasibilityOutcome:
    """Is there y > 0 with My <= 0?  Certificate satisfies y >= 1, My <= 0."""
    return _decide(m, strict=False)
