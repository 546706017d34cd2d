import random
from collections import Counter
from fractions import Fraction as F

import pytest

from semimono import classify, explore, feasibility, verify
from semimono.classify import (
    ClassLabel,
    ExactOrderResult,
    OrderStatus,
    SupportWitness,
    Variant,
    WrongOrderError,
    _exact_order_screen,
    copositive_exact_order,
    exact_order,
    has_exact_order,
    is_P,
    is_P0,
    is_Z,
    is_almost_semimonotone,
    is_copositive,
    is_inverse_Z,
    is_nonnegative,
    is_semimonotone,
    is_strictly_copositive,
    is_strictly_semimonotone,
    negative_entry_profile,
)
from semimono.feasibility import feasible_semistrict, feasible_strict
from semimono.ratcore import IndexSet, RatMatrix, _cleared_rows, det, principal_submatrix
from semimono.verify import audit_thm_3x3_structure

from matrices import (
    COPOSITIVE_ONLY,
    M3_ORDER2_E,
    M3_ORDER2_E0,
    M4_ORDER2,
    M4_ORDER2_NONZ,
    M4_ORDER3,
    M5_ORDER2,
    M5_ORDER3,
    NONCLOSURE_A,
    NONCLOSURE_SUM,
    SHIFT_SUM,
    STRICTLY_COPOSITIVE_ONLY,
)
from oracles import (
    PLANTED_KINDS,
    all_supports,
    fm_feasible,
    planted_singular,
    random_matrix,
    random_p_matrix,
    random_psd,
    random_z_matrix,
)


def members(a, variant):
    return exact_order(a, variant)


# ---------------------------------------------------------------------------
# membership with certificates


def test_identity_is_semimonotone():
    assert is_semimonotone(RatMatrix.identity(3)).member


def test_membership_failure_carries_first_witness():
    verdict = is_semimonotone(RatMatrix([[0, -1], [-2, 0]]))
    assert not verdict.member
    assert isinstance(verdict.witness, SupportWitness)
    assert verdict.witness.support.members == (1, 2)
    assert verdict.witness.vector == (F(1), F(1))


def test_exact_order_two_matrix_is_not_semimonotone():
    assert not is_semimonotone(M3_ORDER2_E0).member


def test_strict_membership():
    assert is_strictly_semimonotone(RatMatrix.identity(3)).member
    assert not is_strictly_semimonotone(RatMatrix([[0, 0], [0, 0]])).member
    assert not is_strictly_semimonotone(RatMatrix([[1, -2], [-2, 1]])).member


def test_witnesses_revalidate_by_substitution():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        for variant, op in ((Variant.E0, is_semimonotone), (Variant.E, is_strictly_semimonotone)):
            verdict = op(m)
            if verdict.member:
                continue
            w = verdict.witness
            block = principal_submatrix(m, w.support)
            assert all(v > 0 for v in w.vector)
            image = block @ w.vector
            if variant is Variant.E0:
                assert all(x < 0 for x in image)
            else:
                assert all(x <= 0 for x in image)


# ---------------------------------------------------------------------------
# almost variants (literal two-part definition)


def test_almost_fixture_with_certificate():
    verdict = is_almost_semimonotone(RatMatrix([[0, -1], [-2, 0]]), Variant.E0)
    assert verdict.member
    x = verdict.witness.vector
    m = RatMatrix([[0, -1], [-2, 0]])
    assert all(v > 0 for v in x) and all(w <= 0 for w in m @ x)


def test_almost_strict_fixture():
    assert is_almost_semimonotone(RatMatrix([[1, -3], [-3, 1]]), Variant.E).member


def test_identity_not_almost():
    assert not is_almost_semimonotone(RatMatrix.identity(2), Variant.E0).member


def test_almost_requires_order_two():
    with pytest.raises(ValueError):
        is_almost_semimonotone(RatMatrix([[1]]))


def test_zero_matrix_is_literal_almost_but_also_semimonotone():
    # the literal definition does not exclude class members
    z = RatMatrix([[0, 0], [0, 0]])
    assert is_almost_semimonotone(z, Variant.E0).member
    assert is_semimonotone(z).member


def test_almost_2x2_characterization_against_exact_order():
    # closed form: E0 exact order 1 at n=2 means nonnegative diagonal,
    # negative off-diagonal, negative determinant (nonpositive for E with
    # positive diagonal)
    rng = random.Random(37)
    for _ in range(250):
        m = random_matrix(rng, 2, num_bound=4, den_bound=2)
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        closed_e0 = a >= 0 and d >= 0 and b < 0 and c < 0 and a * d - b * c < 0
        closed_e = a > 0 and d > 0 and b < 0 and c < 0 and a * d - b * c <= 0
        assert (exact_order(m, Variant.E0).k == 1) == closed_e0
        assert (exact_order(m, Variant.E).k == 1) == closed_e


# ---------------------------------------------------------------------------
# exact order


def test_exact_order_fixtures():
    assert exact_order(M3_ORDER2_E0, Variant.E0).k == 2
    assert exact_order(M3_ORDER2_E, Variant.E).k == 2
    assert exact_order(M4_ORDER3, Variant.E0).k == 3
    assert exact_order(M5_ORDER3, Variant.E0).k == 3
    assert exact_order(M4_ORDER2, Variant.E0).k == 2
    assert exact_order(M5_ORDER2, Variant.E0).k == 2
    assert exact_order(RatMatrix.identity(3), Variant.E0).k == 0


def test_exact_order_evidence_profile():
    result = exact_order(M3_ORDER2_E0, Variant.E0)
    assert result.evidence == (OrderStatus.ALL, OrderStatus.NONE, OrderStatus.NONE)


def test_sum_matrix_has_no_exact_order_with_mixed_level():
    result = exact_order(NONCLOSURE_SUM, Variant.E0)
    assert result.k is None
    assert result.evidence[1] is OrderStatus.MIXED


def test_shift_sum_rejected_from_exact_order_two():
    assert exact_order(SHIFT_SUM, Variant.E0).k != 2


def test_exact_order_k_equals_n():
    m = RatMatrix([[-1, 5], [5, -2]])
    assert exact_order(m, Variant.E0).k == 2  # every diagonal entry fails already


def test_exact_order_evidence_monotone():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant in (Variant.E0, Variant.E):
            ev = exact_order(m, variant).evidence
            seen_not_all = False
            seen_none = False
            for status in ev:
                if status is not OrderStatus.ALL:
                    seen_not_all = True
                if seen_not_all:
                    assert status is not OrderStatus.ALL
                if seen_none:
                    assert status is OrderStatus.NONE
                if status is OrderStatus.NONE:
                    seen_none = True


def exact_order_corpus():
    """Orders 1-5 with fractional entries: half of them random, half with a
    nonnegative diagonal over mostly negative off-diagonal entries (the
    shape of the exact-order classes); some with a zero row.  Each comes
    with its rows scaled by positive rationals."""
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [list(row) for row in random_matrix(rng, n, num_bound=3, den_bound=3).entries]
        if rng.randrange(2):
            rows = [
                [F(rng.randint(0, 4) if i == j else rng.choice((-4, -3, -2, -1, 1)),
                   rng.randint(1, 3)) for j in range(n)]
                for i in range(n)
            ]
        if rng.randrange(4) == 0:
            rows[rng.randrange(n)] = [F(0)] * n
        scales = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        yield RatMatrix(rows), RatMatrix([[d * v for v in row] for d, row in zip(scales, rows)])


def test_has_exact_order_matches_full_classifier():
    # has_exact_order sweeps the row-cleared integer matrix, exact_order the
    # Fraction blocks, and an audit's hypothesis must read as the profile
    # route would print it, on the corpus and its scaled rows.
    seen = Counter()
    for m, scaled in exact_order_corpus():
        n = m.order
        for variant in (Variant.E0, Variant.E):
            profile = exact_order(m, variant)
            k_full = profile.k
            seen[k_full is not None and 0 < k_full < n] += 1
            for k in range(n + 1):
                assert has_exact_order(m, k, variant) == (k_full == k)
                assert has_exact_order(scaled, k, variant) == (k_full == k)
                assert verify._hypothesis(m, variant, k, "k") == (
                    k_full == k, f"classified as {profile.describe()}; requires k"
                )
    # the corpus reaches exact orders strictly between 0 and n
    assert seen[True] >= 10
    # an order outside 0..n is a usage error, not a verdict
    with pytest.raises(ValueError, match=r"exact order must lie in 0\.\.2"):
        has_exact_order(RatMatrix.identity(2), 3, Variant.E0)


def test_exact_order_screen_matches_full_classifier_at_every_k():
    # The screen itself, at every k in 0..n and for both variants, on the
    # integer rows D A of the corpus: row-cleared, cleared from the scaled
    # rows, and those times positive integers.  Its branches all run: every
    # single must fail at k = n, every pair at k = n - 1, and every support
    # of size n - k + 1 above 2 at the smaller k; each is met and missed.
    rng = random.Random(44)
    seen = Counter()
    for m, scaled in exact_order_corpus():
        n = m.order
        rows = _cleared_rows(m.entries)[1]
        weights = [rng.randint(1, 5) for _ in range(n)]
        row_sets = (rows, _cleared_rows(scaled.entries)[1],
                    [[w * v for v in row] for w, row in zip(weights, rows)])
        for variant in (Variant.E0, Variant.E):
            k_full = exact_order(m, variant).k
            for k in range(n + 1):
                screen = _exact_order_screen(n, k, variant.strict_system)
                expected = k_full == k
                assert all(screen(r) == expected for r in row_sets), (m, variant, k)
                branch = "singles" if k == n else "pairs" if k == n - 1 else "larger"
                seen[branch, expected] += 1
    assert min(seen[b, e] for b in ("singles", "pairs", "larger") for e in (True, False)) >= 5


def test_exact_order_screen_is_built_once_per_shape():
    # one closure per (n, k, strict), kept while the shape is in use, and a
    # cache that stays bounded however many shapes are asked for
    maxsize = classify._exact_order_screen.cache_parameters()["maxsize"]
    classify._exact_order_screen.cache_clear()
    screen = classify._exact_order_screen(4, 2, True)
    assert classify._exact_order_screen(4, 2, True) is screen
    assert classify._exact_order_screen(4, 2, False) is not screen
    shapes = [(n, k, strict) for n in range(1, 10) for k in range(n + 1) for strict in (True, False)]
    assert len(shapes) > maxsize
    for shape in shapes:
        classify._exact_order_screen(*shape)
    info = classify._exact_order_screen.cache_info()
    assert info.misses > maxsize and info.currsize <= maxsize
    # an order outside 0..n is refused when the screen is built
    with pytest.raises(ValueError, match=r"exact order must lie in 0\.\.3"):
        classify._exact_order_screen(3, 4, True)


def witness_support(result):
    return None if result.witness is None else result.witness.support.members


def unpruned_sweep(a, variant):
    """Reference for the pruned sweep: Fourier-Motzkin on every support; a
    support fails when any of its subsets has a feasible system.  Returns
    the per-order evidence and the first feasible support."""
    supports = list(all_supports(a.order))
    feasible = [
        alpha.members
        for alpha in supports
        if fm_feasible(principal_submatrix(a, alpha), variant.strict_system).feasible
    ]
    evidence = []
    for size in range(1, a.order + 1):
        member = [
            not any(set(f) <= set(alpha.members) for f in feasible)
            for alpha in supports
            if len(alpha) == size
        ]
        if all(member):
            evidence.append(OrderStatus.ALL)
        elif any(member):
            evidence.append(OrderStatus.MIXED)
        else:
            evidence.append(OrderStatus.NONE)
    return tuple(evidence), feasible[0] if feasible else None


def test_pruned_sweep_matches_unpruned_reference():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant, member_test, copositive_test in (
            (Variant.E0, is_semimonotone, is_copositive),
            (Variant.E, is_strictly_semimonotone, is_strictly_copositive),
        ):
            evidence, first = unpruned_sweep(m, variant)
            result = exact_order(m, variant)
            assert result.evidence == evidence
            assert witness_support(result) == first
            assert witness_support(member_test(m)) == first
            _, first_symmetric = unpruned_sweep(m.symmetric_part(), variant)
            assert witness_support(copositive_test(m)) == first_symmetric
            almost = is_almost_semimonotone(m, variant)
            if first is not None and len(first) < n:
                assert not almost.member and witness_support(almost) == first
            else:
                assert almost.witness is None or len(almost.witness.support) == n


def test_witness_is_the_public_oracles_certificate():
    # off-diagonal entries near -1 and diagonal entries in [0, 5n/4]: the
    # first failing support has any size from 1 to 5, so its certificate
    # comes from the shortcuts, the order-2 closed form and the simplex
    rng = random.Random(61)
    sizes = Counter()
    for n in range(2, 7):
        for _ in range(10):
            m = RatMatrix(
                [
                    [F(rng.randint(0, 5 * n) if i == j else -rng.randint(3, 5), 4)
                     for j in range(n)]
                    for i in range(n)
                ]
            )
            for a in (m, m.symmetric_part()):
                for variant, oracle in (
                    (Variant.E0, feasible_strict),
                    (Variant.E, feasible_semistrict),
                ):
                    witness = exact_order(a, variant).witness
                    if witness is None:
                        continue
                    sizes[len(witness.support)] += 1
                    out = oracle(principal_submatrix(a, witness.support))
                    assert out.feasible and witness.vector == out.certificate
    assert {1, 2, 3, 4, 5} <= set(sizes)


def test_exact_order_reads_orders_1_and_2_in_place(monkeypatch):
    # M5_ORDER2 has every 1x1 and 2x2 block in E0 and its first failing
    # support at order 4: the sweep reads the ten pairs where they stand
    # and slices a block only for the supports of order 3 and up
    sliced = Counter()
    pairs = []
    real_block, real_pair = classify._block, classify._pair_fails
    monkeypatch.setattr(
        classify, "_block",
        lambda rows, members: sliced.update([len(members)]) or real_block(rows, members),
    )
    monkeypatch.setattr(
        classify, "_pair_fails",
        lambda rows, i, j, strict: pairs.append((i, j)) or real_pair(rows, i, j, strict),
    )
    exact_order.cache_clear()
    result = exact_order(M5_ORDER2, Variant.E0)
    assert result.k == 2 and len(result.witness.support) == 4
    assert sorted(pairs) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert min(sliced) == 3 and sliced[3] == 10


def test_first_failing_support_is_solved_once(monkeypatch):
    # every 1x1 and 2x2 block passes and the whole matrix needs the simplex:
    # the sweep's witness becomes the certificate, so one exact_order call
    # solves the block once.  Each patch wraps the original function, so a
    # call is counted once in whichever namespace it is made from.
    m = RatMatrix([[4, -3, 0], [3, 4, -4], [-4, -2, 2]])
    calls = Counter()
    for module, name in (
        (feasibility, "_witness"),
        (classify, "_witness"),
        (feasibility, "phase1_feasible"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args)
        )
    exact_order.cache_clear()
    result = exact_order(m, Variant.E0)
    assert result.witness.support == IndexSet.full(3)
    assert calls == Counter({"_witness": 1, "phase1_feasible": 1})
    assert result.witness.vector == feasible_strict(m).certificate


def test_search_sweep_solves_no_lp(monkeypatch):
    # The screen of _exact_order_screen, behind has_exact_order and every
    # search, runs once per attempt and decides every support by sign
    # tests and one integer solve: no simplex and no _witness while it
    # runs.  The exact_order calls on the planted matrices below still run
    # them, which shows that the counters are live.
    inside = []
    calls = Counter()
    for module, name in (
        (feasibility, "phase1_feasible"),
        (feasibility, "_witness"),
        (classify, "_witness"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *args, real=real, name=name:
                calls.update([(name, bool(inside))]) or real(*args),
        )
    real_decide = classify._minimal_witness
    monkeypatch.setattr(
        classify, "_minimal_witness",
        lambda rows, members, strict:
            calls.update([("order >= 3", len(members) >= 3)]) or real_decide(rows, members, strict),
    )
    real_factory = classify._exact_order_screen

    def factory(n, k, strict):
        real_screen = real_factory(n, k, strict)

        def screen(rows):
            inside.append(True)
            calls.update(["sweeps"])
            try:
                return real_screen(rows)
            finally:
                inside.pop()

        return screen

    monkeypatch.setattr(classify, "_exact_order_screen", factory)
    monkeypatch.setattr(explore, "_exact_order_screen", factory)
    exact_order.cache_clear()

    conj2 = explore.search_conjecture_2(explore.GeneratorConfig(
        order=4, template=explore.template_diag_nonneg_off_free(4), numerator_bound=4,
        denominator_bound=2, diagonal_numerator_bound=8, free_weights=(12, 1, 2),
        seed=7, max_attempts=400,
    ))
    assert conj2.attempts == calls["sweeps"] == 400 and conj2.hit_count > 0
    conj1 = explore.search_conjecture_1(explore.GeneratorConfig(
        order=4, template=explore.template_z(4), numerator_bound=4, denominator_bound=2,
        diagonal_numerator_bound=8, seed=7, max_attempts=400,
    ))
    # the Z template draws only Z-matrices, so conjecture 1's screen sweeps
    # every candidate too
    assert conj1.hit_count > 0 and calls["sweeps"] == 800
    # planted singular blocks reach the singular branches of both systems,
    # the semistrict one at the top size of E exact orders too
    rng = random.Random(131)
    sweeps = 800
    for n in (3, 4, 5):
        for kind in PLANTED_KINDS:
            a = RatMatrix(planted_singular(rng, n, kind))
            for variant in Variant:
                for k in range(n + 1):
                    assert has_exact_order(a, k, variant) == (exact_order(a, variant).k == k)
                    sweeps += 1
    assert calls["sweeps"] == sweeps
    assert calls["phase1_feasible", True] == calls["_witness", True] == 0
    assert calls["order >= 3", True] > 300
    assert calls["phase1_feasible", False] > 0 and calls["_witness", False] > 0


def test_exact_order_slices_at_most_the_witness_block(monkeypatch):
    # the sweep reads the matrix's rows in place and slices blocks as plain
    # lists, the certificate of the first failing support's too: exact_order
    # builds no RatMatrix
    built = []
    real_init = RatMatrix.__init__
    monkeypatch.setattr(
        RatMatrix, "__init__", lambda self, rows: built.append(rows) or real_init(self, rows)
    )
    exact_order.cache_clear()
    result = exact_order(M5_ORDER2, Variant.E0)
    assert result.k == 2 and len(result.witness.support) == 4
    assert built == []


def test_heredity_of_membership():
    rng = random.Random(47)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        if not is_semimonotone(m).member:
            continue
        checked += 1
        for alpha in all_supports(n):
            assert is_semimonotone(principal_submatrix(m, alpha)).member


def test_transpose_invariance():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, num_bound=3, den_bound=2)
        for variant in (Variant.E0, Variant.E):
            assert exact_order(m, variant) == exact_order(m.transpose(), variant)


# ---------------------------------------------------------------------------
# sign-scan classes and minor classes


def test_z_and_nonnegative_scans():
    assert is_Z(RatMatrix([[0, -1], [-2, 0]]))
    assert not is_Z(M4_ORDER2_NONZ)
    assert is_Z(RatMatrix.identity(3))
    assert is_nonnegative(RatMatrix.identity(3))
    assert not is_nonnegative(M3_ORDER2_E0)


def test_p_and_p0_verdicts():
    assert is_P(RatMatrix.identity(3)).member
    assert is_P(RatMatrix([[11, -3], [-3, 1]])).member
    verdict = is_P0(RatMatrix([[0, -1], [-2, 0]]))
    assert not verdict.member
    assert verdict.witness.minor == -2
    assert verdict.witness.support.members == (1, 2)
    assert not is_P(RatMatrix([[0, 0], [0, 0]])).member
    assert is_P0(RatMatrix([[0, 0], [0, 0]])).member


def test_p_witness_minor_recomputes():
    rng = random.Random(59)
    for _ in range(40):
        m = random_matrix(rng, 3, num_bound=4, den_bound=2)
        verdict = is_P0(m)
        if not verdict.member:
            assert det(principal_submatrix(m, verdict.witness.support)) == verdict.witness.minor


def _first_minor_break(a, strict):
    """The reference scan: det of each principal submatrix in (size, lex)
    order, up to the first minor that breaks the P0 (``strict``: P)
    condition, with its support; None when none breaks it."""
    for alpha in all_supports(a.order):
        minor = det(principal_submatrix(a, alpha))
        if minor < 0 or (strict and minor == 0):
            return alpha, minor
    return None


def test_minor_verdicts_match_a_det_scan():
    # is_P0 and is_P read every minor from one row-cleared D A; each must
    # stop at the support and Fraction minor where a det(principal_submatrix)
    # scan stops, zero minors included, and pass where the scan passes
    rng = random.Random(71)
    outcomes = Counter()
    for _ in range(150):
        n = rng.randint(1, 5)
        for m in (
            random_matrix(rng, n, num_bound=2, den_bound=3),
            random_psd(rng, n),
            random_p_matrix(rng, n),
        ):
            for verdict, strict in ((is_P0(m), False), (is_P(m), True)):
                expected = _first_minor_break(m, strict)
                assert verdict.member == (expected is None), m
                if expected is None:
                    outcomes[strict, "pass"] += 1
                    continue
                assert (verdict.witness.support, verdict.witness.minor) == expected, m
                assert type(verdict.witness.minor) is F
                outcomes[strict, "zero" if expected[1] == 0 else "negative"] += 1
    for strict in (True, False):
        assert outcomes[strict, "pass"] > 0 and outcomes[strict, "negative"] > 0
    assert outcomes[True, "zero"] > 0


# ---------------------------------------------------------------------------
# copositivity


def test_copositive_fixtures():
    assert is_strictly_copositive(RatMatrix.identity(3)).member
    assert not is_copositive(COPOSITIVE_ONLY).member
    assert not is_copositive(RatMatrix([[1, -3], [-3, 1]])).member


def test_copositive_witness_is_quadratic_form_violation():
    verdict = is_copositive(COPOSITIVE_ONLY)
    w = verdict.witness
    s = COPOSITIVE_ONLY.symmetric_part()
    block = principal_submatrix(s, w.support)
    value = sum(
        w.vector[i] * (block @ w.vector)[i] for i in range(len(w.vector))
    )
    assert value < 0


def test_copositive_exact_order_fixtures():
    assert copositive_exact_order(COPOSITIVE_ONLY, Variant.E0).k == 2
    assert exact_order(COPOSITIVE_ONLY, Variant.E0).k == 0
    assert copositive_exact_order(STRICTLY_COPOSITIVE_ONLY, Variant.E).k == 2
    assert exact_order(STRICTLY_COPOSITIVE_ONLY, Variant.E).k == 0
    assert copositive_exact_order(RatMatrix.identity(3), Variant.E0).k == 0


def test_class_inclusions():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(2, 4)
        nonneg = random_matrix(rng, n, num_bound=4, den_bound=2).symmetric_part()
        nonneg = RatMatrix([[abs(v) for v in row] for row in nonneg.entries])
        assert is_semimonotone(nonneg).member
        p = random_p_matrix(rng, n)
        assert is_P(p).member
        assert is_strictly_semimonotone(p).member
        psd = random_psd(rng, n)
        assert is_copositive(psd).member
        assert is_semimonotone(psd).member


def test_copositive_implies_semimonotone_for_general_matrices():
    rng = random.Random(67)
    for _ in range(60):
        m = random_matrix(rng, 3, num_bound=3, den_bound=2)
        if is_copositive(m).member:
            assert is_semimonotone(m).member


def test_z_matrices_semimonotone_iff_p0():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = random_z_matrix(rng, n)
        assert is_semimonotone(m).member == is_P0(m).member


# ---------------------------------------------------------------------------
# inverse-Z, 3x3 structure audit, negative entries


def test_inverse_z_fixtures():
    assert is_inverse_Z(M4_ORDER2_NONZ).member
    assert is_inverse_Z(RatMatrix.identity(3)).member
    assert is_inverse_Z(RatMatrix([[1, 1], [0, 1]])).member
    assert not is_inverse_Z(RatMatrix([[1, -1], [1, 1]])).member
    assert not is_inverse_Z(RatMatrix([[1, 2], [2, 4]])).member  # singular


# The 3x3 structure checks are computed inside the thm3.4 audit.


def conclusion(report, prefix):
    return next(c for c in report.conclusions if c.name.startswith(prefix))


def test_structure_report_fixture():
    report = audit_thm_3x3_structure(M3_ORDER2_E0, Variant.E0)
    assert report.ok
    assert conclusion(report, "diagonal").passed
    assert conclusion(report, "off-diagonal").passed
    minors = conclusion(report, "order-2 principal minors negative")
    assert minors.passed and minors.evidence == "minors = ['-2', '-3', '-4']"


def test_structure_report_identity_fails_pattern(monkeypatch):
    # No 3x3 matrix of exact order 2 breaks the pattern, so the audit is
    # told that the identity has exact order 2 to reach the failing checks.
    statuses = (OrderStatus.ALL, OrderStatus.NONE, OrderStatus.NONE)
    monkeypatch.setattr(verify, "exact_order", lambda a, v: ExactOrderResult(v, 2, statuses))
    report = audit_thm_3x3_structure(RatMatrix.identity(3), Variant.E0)
    assert conclusion(report, "diagonal").passed
    assert not conclusion(report, "off-diagonal").passed
    minors = conclusion(report, "order-2 principal minors negative")
    assert not minors.passed and minors.evidence == "minors = ['1', '1', '1']"
    assert report.counterexample == RatMatrix.identity(3)


def test_structure_report_strict_variant():
    report = audit_thm_3x3_structure(M3_ORDER2_E, Variant.E)
    assert report.ok
    assert conclusion(report, "diagonal entries > 0").passed
    assert conclusion(report, "off-diagonal").passed
    minors = conclusion(report, "order-2 principal minors nonpositive")
    assert minors.passed and minors.evidence == "minors = ['-3', '-3', '-3']"


def test_structure_report_wrong_order():
    with pytest.raises(WrongOrderError):
        audit_thm_3x3_structure(RatMatrix.identity(2))


def test_negative_entry_profile():
    profile = negative_entry_profile(M4_ORDER2_NONZ)
    assert profile.min_row >= 2 and profile.min_column >= 2
    assert negative_entry_profile(RatMatrix.identity(3)).row_counts == (0, 0, 0)
    small = negative_entry_profile(RatMatrix([[0, -1], [-2, 0]]))
    assert small.row_counts == (1, 1) and small.column_counts == (1, 1)


def test_nonclosure_ingredients_classify():
    assert exact_order(NONCLOSURE_A, Variant.E0).k == 2
    assert is_Z(NONCLOSURE_A)


def test_labels_are_stable_tags():
    assert ClassLabel.E0.value == "E0"
    assert is_semimonotone(RatMatrix.identity(2)).label is ClassLabel.E0
