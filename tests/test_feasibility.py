import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from semimono.classify import Variant, exact_order
from semimono.feasibility import (
    FeasibilityOutcome,
    _certified_exact_order,
    _certifies_failure,
    _certifies_member,
    _member_certificate,
    _minimal_witness,
    _order2,
    _pair_fails,
    _signs_fit,
    _witness,
    feasible_semistrict,
    feasible_strict,
    phase1_feasible,
)
from semimono.ratcore import (
    RatMatrix,
    _block,
    _cleared_rows,
    _gauss_jordan,
    _int_det,
    _support_members,
)

from oracles import (
    FM_MAX_ORDER,
    PLANTED_KINDS,
    OrderTooLargeError,
    fm_feasible,
    planted_singular,
    random_matrix,
)

small_fraction = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def square(n):
    return st.lists(
        st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMatrix)


def assert_certificate(m: RatMatrix, outcome: FeasibilityOutcome, strict: bool):
    assert outcome.feasible and outcome.certificate is not None
    y = outcome.certificate
    assert all(v >= 1 for v in y)
    image = m @ y
    bound = F(-1) if strict else F(0)
    assert all(w <= bound for w in image)


def simplex_feasible(m: RatMatrix, strict: bool) -> bool:
    """Reference route: the simplex alone on the closed system
    u >= 0, Mu <= shift - row sums (u = y - 1), with no closed form or
    shortcut in front."""
    shift = F(-1) if strict else F(0)
    ok, _ = phase1_feasible(m.entries, [shift - sum(row, F(0)) for row in m.entries])
    return ok


# ---------------------------------------------------------------------------
# direct examples


def test_strict_order1():
    out = feasible_strict(RatMatrix([[-1]]))
    assert out.feasible and out.certificate == (F(1),)
    assert feasible_strict(RatMatrix([[F(-1, 7)]])).certificate == (F(7),)
    assert not feasible_strict(RatMatrix([[1]])).feasible
    assert not feasible_strict(RatMatrix([[0]])).feasible


def test_strict_order2_example():
    m = RatMatrix([[0, -1], [-2, 0]])
    out = feasible_strict(m)
    assert out.certificate == (F(1), F(1))
    assert_certificate(m, out, strict=True)


def test_order1_and_order2_sign_tests_match_the_witness_route():
    # The sweeps decide 1x1 blocks, and 2x2 blocks whose 1x1 blocks pass,
    # by signs alone (_signs_fit, _pair_fails): every such block with
    # entries in -3..3, for both strictnesses, integer rows against the
    # witness route on Fractions.  Then whole matrices of orders 1-5:
    # _signs_fit(rows, strict, passing) must say whether every support of
    # size <= passing passes and every one of size passing + 1 fails,
    # orders 1 and 2 only, each block decided by the witness route, and
    # _pair_fails read in place must match each pair whose 1x1 blocks pass.
    values = range(-3, 4)
    checked = 0
    for strict in (True, False):
        for a in values:
            expected = _witness([[F(a)]], strict) is not None
            assert _signs_fit([[a]], strict, 0) == expected
            assert _signs_fit([[a]], strict, 1) == (not expected)
        passing = [a for a in values if (a >= 0 if strict else a > 0)]
        for a11, a22 in itertools.product(passing, repeat=2):
            for a12, a21 in itertools.product(values, repeat=2):
                rows = [[a11, a12], [a21, a22]]
                expected = _order2([[F(v) for v in row] for row in rows], strict) is not None
                assert _signs_fit(rows, strict, 1) == expected
                assert _signs_fit(rows, strict, 2) == (not expected)
                assert _pair_fails(rows, 0, 1, strict) == expected
                checked += 1
    assert checked == 16 * 49 + 9 * 49

    rng = random.Random(10)
    fits = Counter()
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-1 if i == j else -3, 3) for j in range(n)] for i in range(n)]
        for strict in (True, False):
            fails = {
                members: _witness([[F(v) for v in row] for row in _block(rows, members)], strict)
                is not None
                for size in (1, 2)
                for members in itertools.combinations(range(1, n + 1), size)
            }
            singles = [fails[(i,)] for i in range(1, n + 1)]
            for (i, j), f in ((m, f) for m, f in fails.items() if len(m) == 2):
                if not (singles[i - 1] or singles[j - 1]):
                    assert _pair_fails(rows, i - 1, j - 1, strict) == f
                    fits["pair"] += 1
            pairs = [f for members, f in fails.items() if len(members) == 2]
            for passing in range(n + 1):
                if passing == 0:
                    expected = all(singles)
                else:
                    expected = not any(singles) and all(f == (passing == 1) for f in pairs)
                assert _signs_fit(rows, strict, passing) == expected
                fits[passing, expected] += 1
    assert min(fits[p, e] for p in (0, 1, 2) for e in (True, False)) > 0 and fits["pair"]


def test_semistrict_examples():
    assert feasible_semistrict(RatMatrix([[0]])).certificate == (F(1),)
    assert not feasible_semistrict(RatMatrix([[1]])).feasible
    m = RatMatrix([[1, -3], [-3, 1]])
    assert_certificate(m, feasible_semistrict(m), strict=False)


def test_strict_infeasible_zero_row():
    # a row with no negative entry can never be driven strictly negative
    assert not feasible_strict(RatMatrix([[0, 0], [-1, -1]])).feasible


def test_boundary_det_zero_is_strictly_infeasible_but_semistrict_feasible():
    m = RatMatrix([[1, -1], [-1, 1]])
    assert not feasible_strict(m).feasible
    assert_certificate(m, feasible_semistrict(m), strict=False)


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=60, deadline=None)
@given(square(3), st.builds(F, st.integers(1, 7), st.integers(1, 4)))
def test_scale_invariance(m, t):
    scaled = m * t
    assert feasible_strict(m).feasible == feasible_strict(scaled).feasible
    assert feasible_semistrict(m).feasible == feasible_semistrict(scaled).feasible


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_certificates_substitute_exactly(m):
    for strict, op in (
        (True, feasible_strict),
        (False, feasible_semistrict),
    ):
        out = op(m)
        if out.feasible:
            assert_certificate(m, out, strict)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_strict_implies_semistrict(m):
    if feasible_strict(m).feasible:
        assert feasible_semistrict(m).feasible


def test_closed_forms_match_simplex_for_small_orders():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 2)
        m = random_matrix(rng, n, num_bound=4, den_bound=3)
        for strict, op in (
            (True, feasible_strict),
            (False, feasible_semistrict),
        ):
            fast = op(m)
            assert fast.feasible == simplex_feasible(m, strict)
            if fast.feasible:
                assert_certificate(m, fast, strict)


def test_shortcuts_match_simplex_for_larger_orders():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(3, 5)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for strict, op in (
            (True, feasible_strict),
            (False, feasible_semistrict),
        ):
            assert op(m).feasible == simplex_feasible(m, strict)


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle


def test_fm_agrees_on_examples():
    assert fm_feasible(RatMatrix([[0, -1], [-2, 0]]), strict=True).feasible
    assert fm_feasible(RatMatrix([[0]]), strict=False).feasible
    assert not fm_feasible(RatMatrix([[1]]), strict=True).feasible


def test_fm_certificates_substitute_exactly():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for strict in (True, False):
            out = fm_feasible(m, strict)
            if out.feasible:
                assert_certificate(m, out, strict)


def test_fm_agreement_sweep():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=5, den_bound=3)
        assert (
            fm_feasible(m, strict=True).feasible
            == feasible_strict(m).feasible
        )
        assert (
            fm_feasible(m, strict=False).feasible
            == feasible_semistrict(m).feasible
        )


def test_fm_order_cap():
    big = RatMatrix.identity(FM_MAX_ORDER + 1)
    with pytest.raises(OrderTooLargeError):
        fm_feasible(big, strict=True)


# Systems whose ratio test ties, so Bland's tie-break picks the leaving row;
# the witnesses were frozen from rational pivoting with the same rule.
DEGENERATE_PHASE1 = [
    (
        [[-7, F(2, 3), F(-3, 2)], [-2, -3, -1], [-2, 0, -3]],
        [F(-9, 4), F(-3, 2), -5],
        [0, 0, F(5, 3)],
    ),
    (
        [
            [-5, F(-2, 3), 4, -4, F(5, 3)],
            [2, -3, F(2, 3), F(-2, 3), F(-7, 4)],
            [1, F(7, 3), F(-1, 2), -6, -2],
            [F(-5, 3), F(7, 2), -5, F(7, 4), F(4, 3)],
            [7, F(4, 3), 3, -3, 3],
        ],
        [-2, 1, 0, 8, 0],
        [0, F(9, 11), 0, F(4, 11), 0],
    ),
]


@pytest.mark.parametrize("g, h, witness", DEGENERATE_PHASE1)
def test_phase1_ties_follow_bland(g, h, witness):
    g = [[F(v) for v in row] for row in g]
    ok, x = phase1_feasible(g, [F(v) for v in h])
    assert ok and x == witness
    assert all(sum(a * xi for a, xi in zip(row, x)) <= hi for row, hi in zip(g, h))


# ---------------------------------------------------------------------------
# the search sweep's decision at minimal supports


def minimal_decisions(rows, variant):
    """(members, strict, fails) for every support of the integer ``rows``
    with no failing immediate sub-support, decided by whether
    ``_minimal_witness`` finds a witness, in (size, lex) order.  A support
    with a failing sub-support fails by heredity and is not decided, so
    every decided support is minimal: these are the blocks the lemma
    speaks about."""
    strict = variant.strict_system
    failing = set()
    seen = []
    for members in _support_members(len(rows)):
        if any(members[:i] + members[i + 1:] in failing for i in range(len(members))):
            failing.add(members)
            continue
        fails = _minimal_witness(rows, members, strict) is not None
        seen.append((members, strict, fails))
        if fails:
            failing.add(members)
    return seen


def cross_check(rows, tally):
    """Every minimal support of order >= 3, both variants: the decision must
    match the simplex route and, up to order FM_MAX_ORDER, Fourier-Motzkin.
    ``tally`` counts the checked blocks by (order, strict, fails, kind),
    kind being "singular", "odd swaps" (``_gauss_jordan`` returns -p, the
    trap of reading the sign of the solution from its return value) or
    "plain"."""
    for variant in Variant:
        for members, strict, fails in minimal_decisions(rows, variant):
            order = len(members)
            if order < 3:
                continue
            block = _block(rows, members)
            assert (_witness([[F(v) for v in row] for row in block], strict) is not None) == fails
            if order <= FM_MAX_ORDER:
                assert fm_feasible(RatMatrix(block), strict).feasible == fails
            pivoted = [row[:] for row in block]
            det = _gauss_jordan(pivoted)
            kind = "singular" if det == 0 else "odd swaps" if det != pivoted[0][0] else "plain"
            tally[order, strict, fails, kind] += 1


def test_minimal_decision_matches_simplex_and_fourier_motzkin():
    rng = random.Random(113)
    tally = Counter()
    # Diagonal near the order, off-diagonal mostly negative: minimal supports
    # of every order 3..n, failing and passing alike.
    for n, count in ((3, 8), (4, 8), (5, 3), (6, 3)):
        for _ in range(count):
            rows = [
                [rng.randint(n - 3, n) if i == j else rng.choice((-2, -1, -1, -1, 0))
                 for j in range(n)]
                for i in range(n)
            ]
            cross_check(rows, tally)
    # The same with a zero in the corner, which makes the first pivot of
    # every block containing member 1 a row swap.  Row 1 is nonnegative but
    # for its last entry, and a_n1 >= 0, so that 2x2 blocks through member 1
    # pass and larger blocks are solved.
    for n in (4, 5):
        for _ in range(20):
            rows = [
                [rng.randint(n - 3, n) if i == j else rng.choice((-2, -1, -1, -1, 0))
                 for j in range(n)]
                for i in range(n)
            ]
            rows[0] = [0] + [rng.choice((0, 0, 1)) for _ in range(n - 2)] + [-rng.randint(1, 2)]
            rows[n - 1][0] = rng.randint(0, 1)
            cross_check(rows, tally)
    for n in (3, 4, 5, 6):
        for kind in PLANTED_KINDS:
            for _ in range(2):
                cross_check(planted_singular(rng, n, kind), tally)
        # D1 ((n-1) I - J) D2 with positive diagonal D1, D2: its proper
        # principal blocks are positive semidefinite, so E0 fails first on the
        # whole matrix and E on the singular blocks of order n - 1
        d1 = [rng.randint(1, 3) for _ in range(n)]
        d2 = [rng.randint(1, 3) for _ in range(n)]
        cross_check([[d1[i] * ((n - 1) * (i == j) - 1) * d2[j] for j in range(n)] for i in range(n)], tally)

    def total(**fixed):
        names = ("order", "strict", "fails", "kind")
        return sum(
            c for key, c in tally.items()
            if all(key[names.index(name)] == value for name, value in fixed.items())
        )

    for order in (3, 4, 5, 6):
        for strict in (True, False):
            assert total(order=order, strict=strict, fails=True) >= 1
            assert total(order=order, strict=strict, fails=False) >= 1
    # the order-3 closed form pivots nothing; the swaps that matter are above
    for fails in (True, False):
        assert sum(total(order=order, kind="odd swaps", fails=fails) for order in (4, 5)) >= 3
    # E blocks with a positive kernel fail, all other singular blocks pass
    assert total(kind="singular", strict=False, fails=True) >= 8
    assert total(kind="singular", strict=True, fails=False) >= 24
    assert total(kind="singular", strict=True, fails=True) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_planted_singular_blocks_are_minimal_and_decided_by_their_kernel(n):
    # each planted matrix is singular with every proper principal block in
    # E, so the sweep reaches the whole matrix: E fails it exactly when the
    # kernel is spanned by a positive vector, E0 never
    rng = random.Random(127 + n)
    for kind in PLANTED_KINDS:
        for _ in range(3):
            rows = planted_singular(rng, n, kind)
            assert _int_det([row[:] for row in rows]) == 0
            for variant in Variant:
                decisions = minimal_decisions(rows, variant)
                full = tuple(range(1, n + 1))
                assert [m for m, _, fails in decisions if fails] in ([], [full])
                assert decisions[-1][0] == full
                expected = variant is Variant.E and kind == "positive kernel"
                assert decisions[-1][2] == expected


# ---------------------------------------------------------------------------
# certificates substituted in place of a second sweep


def test_phase1_farkas_multipliers_certify_infeasibility():
    # on an empty {x >= 0 : Gx <= h} the second value is z >= 0 with
    # G^T z >= 0 and h^T z < 0, which makes any x of the system give
    # 0 <= (G^T z)^T x = z^T G x <= h^T z < 0
    rng = random.Random(211)
    infeasible = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        g = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        h = [F(rng.randint(-5, 3), rng.randint(1, 2)) for _ in range(rows)]
        ok, z = phase1_feasible(g, h)
        if ok:
            assert all(v >= 0 for v in z)
            assert all(sum(a * v for a, v in zip(row, z)) <= hi for row, hi in zip(g, h))
            continue
        infeasible += 1
        assert len(z) == rows and all(v >= 0 for v in z)
        assert all(sum(row[j] * zi for row, zi in zip(g, z)) >= 0 for j in range(cols))
        assert sum(hi * zi for hi, zi in zip(h, z)) < 0
    assert infeasible >= 30


def certificates(rows, strict):
    """(block, member certificate, witness) for every support of the
    integer rows, each as its finder gives it, in (size, lex) order."""
    for members in _support_members(len(rows)):
        block = _block(rows, members)
        witness = _minimal_witness(rows, members, strict)
        yield members, block, _member_certificate(block, strict), witness


def test_certificates_substitute_and_flipped_signs_are_refused():
    # Against the witness route on every support of a corpus, both
    # variants: a member certificate that substitutes proves the block's
    # system has no solution, and a witness that substitutes solves it.
    # The finders are complete where the exact-order check asks them: for
    # a member, at orders >= 3 and on blocks whose 1x1 blocks pass; for a
    # witness, at minimal failing supports.  With its signs flipped, no
    # certificate may pass the substitution check.
    rng = random.Random(223)
    seen = Counter()
    corpus = []
    for n in (2, 3, 4, 5):
        for _ in range(6):
            corpus.append([
                [rng.randint(n - 3, n) if i == j else rng.choice((-2, -1, -1, 0, 1))
                 for j in range(n)]
                for i in range(n)
            ])
    for n in (3, 4, 5):
        for kind in PLANTED_KINDS:
            corpus.append(planted_singular(rng, n, kind))
    for rows in corpus:
        for variant in Variant:
            strict = variant.strict_system
            minimal = {m: fails for m, _, fails in minimal_decisions(rows, variant)}
            for members, block, z, y in certificates(rows, strict):
                fails = _witness([[F(v) for v in row] for row in block], strict) is not None
                diagonal = [row[i] for i, row in enumerate(block)]
                singles_pass = all((v >= 0 if strict else v > 0) for v in diagonal)
                if _certifies_member(block, z, strict):
                    assert not fails
                    assert not _certifies_member(block, [-v for v in z], strict)
                    farkas = len(block) >= 3 and all(min(row) < 0 for row in block)
                    seen["member", "farkas" if farkas else "closed form"] += 1
                else:
                    assert fails or (len(block) < 3 and not singles_pass)
                if _certifies_failure(block, y, strict):
                    assert fails
                    assert not _certifies_failure(block, [-v for v in y], strict)
                    seen["witness", "solve" if len(block) > 3 else "closed form"] += 1
                else:
                    assert not minimal.get(members)
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


def test_certificate_checks_refuse_degenerate_vectors():
    # z = 0 proves nothing for the strict system, B^T z = 0 nothing for the
    # semistrict one, and a witness needs y > 0 of the block's length
    b = [[1, -1], [-1, 1]]
    assert not _certifies_member(b, [0, 0], True)
    assert _certifies_member(b, [1, 1], True) and not _certifies_member(b, [1, 1], False)
    assert _certifies_failure(b, [1, 1], False) and not _certifies_failure(b, [1, 1], True)
    assert not _certifies_failure(b, [1, 0], False)
    assert not _certifies_failure(b, [1], False) and not _certifies_member(b, [1], True)
    assert not _certifies_failure(b, None, False) and not _certifies_member(b, None, True)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_singular_failing_E_block_is_certified_by_its_kernel(n):
    # (n I - J) D with D a positive diagonal: every proper principal block
    # is positive definite up to the scaling, and the whole matrix is
    # singular with kernel D^{-1} span(1), so E fails first at the full
    # support (E exact order 1) and E0 never (exact order 0).  The witness
    # is a positive adjugate column with B y = 0: in closed form up to
    # order 3, from the cofactors above.
    rng = random.Random(229 + n)
    d = [rng.randint(1, 4) for _ in range(n)]
    rows = [[(n * (i == j) - 1) * d[j] for j in range(n)] for i in range(n)]
    full = tuple(range(1, n + 1))
    y = _minimal_witness(rows, full, False)
    assert all(v > 0 for v in y)
    assert all(sum(a * v for a, v in zip(row, y)) == 0 for row in rows)
    assert _minimal_witness(rows, full, True) is None
    assert _certified_exact_order(rows, 1, False)
    assert _certified_exact_order(rows, 0, True)
    assert not _certified_exact_order(rows, 0, False) and not _certified_exact_order(rows, 1, True)


def test_certified_exact_order_matches_the_classifier():
    # The hit check holds on the row-cleared D A exactly when exact_order
    # gives k, for every k and both variants: random matrices of orders
    # 1-5, half of them shaped like the exact-order classes, and the
    # E counterexample to checking the supports of size n-k alone: every
    # order-2 system of [[2, 0, -1], [-1, 1, 0], [1, -1, 0]] has no
    # solution and the order-3 one has, yet a33 = 0 fails E, so it has no
    # E exact order.
    rng = random.Random(233)
    corpus = [RatMatrix([[2, 0, -1], [-1, 1, 0], [1, -1, 0]])]
    for _ in range(200):
        n = rng.randint(1, 5)
        if rng.randrange(2):
            corpus.append(random_matrix(rng, n, num_bound=3, den_bound=3))
        else:
            corpus.append(RatMatrix([
                [F(rng.randint(0, 4) if i == j else rng.choice((-4, -3, -2, -1, 1)), rng.randint(1, 3))
                 for j in range(n)]
                for i in range(n)
            ]))
    certified = Counter()
    for m in corpus:
        rows = _cleared_rows(m.entries)[1]
        for variant in Variant:
            expected = exact_order(m, variant).k
            for k in range(m.order + 1):
                holds = _certified_exact_order(rows, k, variant.strict_system)
                assert holds == (expected == k), (m, variant, k)
                certified[holds and 0 < k < m.order] += 1
    assert not _certified_exact_order(_cleared_rows(corpus[0].entries)[1], 1, False)
    assert certified[True] >= 15
