import functools
import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from semimono import explore
from semimono import classify, feasibility
from semimono.classify import (
    NegativeEntryProfile,
    Variant,
    _exact_order_screen,
    _z_rows,
    exact_order,
    is_Z,
)
from semimono.cli import _TEMPLATES, main, parse_matrix_text
from semimono.explore import (
    Counterexample,
    EntrySign,
    GeneratorConfig,
    SearchReport,
    conjecture_1_violations,
    conjecture_2_violations,
    generate,
    search_conjecture_1,
    search_conjecture_2,
    search_exact_order,
    search_negative_entries_question,
    template_diag_nonneg_off_free,
    template_exact_order_pattern,
    template_free,
    template_nonneg,
    template_z,
)
from semimono.ratcore import IndexSet, RatMatrix, _cleared_rows, det, principal_submatrix
from semimono.verify import _minor_breaks

from matrices import (
    M3_ORDER2_E0,
    M4_ORDER2_NONZ,
    M4_ORDER2_NONZ_B,
    M4_ORDER3,
)
from oracles import draws_randrange, random_z_matrix
import random


def cfg(n, template, **kw):
    defaults = dict(order=n, template=template, seed=5, max_attempts=2000)
    defaults.update(kw)
    return GeneratorConfig(**defaults)


# ---------------------------------------------------------------------------
# generation


def test_generate_is_deterministic():
    c = cfg(3, template_exact_order_pattern(3), max_attempts=50)
    first = list(generate(c))
    second = list(generate(c))
    assert first == second


def test_generate_respects_max_attempts():
    c = cfg(2, template_free(2), max_attempts=17)
    assert len(list(generate(c))) == 17


def test_generate_conforms_to_pattern_template():
    c = cfg(3, template_exact_order_pattern(3), max_attempts=200)
    for m in generate(c):
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert m[i, j] >= 0
                else:
                    assert m[i, j] < 0


def test_generate_conforms_to_z_template():
    c = cfg(4, template_z(4), max_attempts=100)
    for m in generate(c):
        assert is_Z(m)
        assert all(m[i, i] >= 0 for i in range(4))


def test_generate_nonneg_template():
    c = cfg(2, template_nonneg(2), max_attempts=100)
    for m in generate(c):
        assert all(v >= 0 for row in m.entries for v in row)


def test_generate_diagonal_bound_knob():
    c = cfg(
        3,
        template_z(3),
        numerator_bound=2,
        diagonal_numerator_bound=9,
        max_attempts=300,
    )
    saw_large_diag = False
    for m in generate(c):
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(m[i, j].numerator) <= 2 or abs(m[i, j]) <= 2
            if m[i, i] > 2:
                saw_large_diag = True
    assert saw_large_diag


# sha256 over the reprs of the first 500 matrices of eight configurations
# (n = 3, 4; free weights (4,1,4), (12,1,2); diagonal bound unset, 7) per
# CLI --template, plus one template that holds every EntrySign.  Frozen from
# the stream of Fraction entries that each drew through random.Random.
STREAM_DIGESTS = {
    "pattern": "391e9ebecef24b3b24a40613949af7aa96c173cbcf244244704023032066d595",
    "z": "955b66944697e9d47c9f149af95e1f48d9dad3f81e755e64c20e8c93ea09e5fe",
    "free": "3dcef4e766b74dc6485f2341f629d4708051854a4508e0323f6c5f0d42f981ea",
    "diag-free": "d955deffe6e161a8f009f9b0b7ef69c90cd54aa45a1d846bf9c3b0421808baf2",
    "nonneg": "a3cf6032d4c71bff7fe1c51d8fbb567cf3d4590a127da0e62bf94f652e53e897",
    "every-sign": "e29d8ca521cc302d20119a25967227262e3d324e26abb2548a9be42f13fd51af",
}


def test_generate_stream_golden_digest():
    signs = tuple(EntrySign)
    templates = dict(_TEMPLATES)
    templates["every-sign"] = lambda n, variant: tuple(
        tuple(signs[(i * n + j) % len(signs)] for j in range(n)) for i in range(n)
    )
    digests = {}
    for name, make in templates.items():
        h = hashlib.sha256()
        for n in (3, 4):
            for weights in ((4, 1, 4), (12, 1, 2)):
                for diag in (None, 7):
                    c = GeneratorConfig(order=n, template=make(n, Variant.E0), seed=8,
                                        max_attempts=500, free_weights=weights,
                                        diagonal_numerator_bound=diag)
                    for m in generate(c):
                        h.update(repr(m).encode() + b"\n")
        digests[name] = h.hexdigest()
    assert digests == STREAM_DIGESTS


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(order=0, template=())
    with pytest.raises(ValueError):
        GeneratorConfig(order=2, template=template_free(3))
    with pytest.raises(ValueError):
        GeneratorConfig(order=2, template=template_free(2), numerator_bound=0)
    with pytest.raises(ValueError):
        GeneratorConfig(order=2, template=template_free(2), diagonal_numerator_bound=0)
    with pytest.raises(ValueError):
        GeneratorConfig(order=2, template=template_free(2), free_weights=(0, 0, 0))


def test_config_refuses_widths_one_generator_word_cannot_draw():
    # every width must stay below 2^32 for a draw to take one 32-bit output;
    # that check comes first, so a denominator bound past 2^31 gets its message
    top = 2**31
    for field in ("numerator_bound", "diagonal_numerator_bound"):
        GeneratorConfig(order=2, template=template_free(2), **{field: top})
    for field in ("numerator_bound", "denominator_bound", "diagonal_numerator_bound"):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            GeneratorConfig(order=2, template=template_free(2), **{field: top + 1})
    GeneratorConfig(order=2, template=template_free(2), free_weights=(top - 2, 1, 1))
    with pytest.raises(ValueError, match="2\\*\\*31"):
        GeneratorConfig(order=2, template=template_free(2), free_weights=(top - 1, 1, 1))
    # every row is cleared by lcm(1..denominator bound), which grows like
    # e^bound, so denominator bounds stop at 255
    GeneratorConfig(order=2, template=template_free(2), denominator_bound=255)
    for bound in (256, top):
        with pytest.raises(ValueError, match="^denominator_bound must be <= 255$"):
            GeneratorConfig(order=2, template=template_free(2), denominator_bound=bound)


def _stream_configs():
    # seeded configs over orders 1-5 and every EntrySign, with zero weights,
    # bounds of 1, powers of two and their neighbours, and 2^31; denominator
    # bounds stop at 255, the largest a config accepts
    rng = random.Random(2024)
    signs = tuple(EntrySign)
    bounds = (1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1,
              2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1, 2**31)
    den_bounds = tuple(b for b in bounds if b <= 255)
    weights = ((4, 1, 4), (12, 1, 2), (0, 0, 1), (1, 0, 0), (0, 3, 0), (2, 0, 5),
               (0, 7, 9), (2**31 - 2, 1, 1), (2**30, 0, 2**30), (1, 2**31 - 2, 0))
    configs = []
    for index in range(360):
        n = index % 5 + 1
        if index < 6 * 5:
            # each order with one sign everywhere, then random mixes of signs
            template = tuple(tuple(signs[index % 6] for _ in range(n)) for _ in range(n))
        else:
            template = tuple(tuple(rng.choice(signs) for _ in range(n)) for _ in range(n))
        configs.append(GeneratorConfig(
            order=n,
            template=template,
            numerator_bound=rng.choice(bounds),
            denominator_bound=rng.choice(den_bounds),
            diagonal_numerator_bound=rng.choice((None, *bounds)),
            free_weights=weights[index % len(weights)],
            seed=rng.randrange(2**40),
            max_attempts=rng.randint(1, 12),
        ))
    return configs


def test_draws_match_the_randrange_stream(monkeypatch):
    # every (L, rows) yield is the randrange stream of (p, q) pairs with each
    # entry cleared by the one constant L: p * (L // q)
    paths = []
    words = explore._words

    def recording_words(seed, bits=32):
        paths.append(bits)
        return words(seed, bits)

    monkeypatch.setattr(explore, "_words", recording_words)
    configs = _stream_configs()
    assert {c.order for c in configs} == {1, 2, 3, 4, 5}
    assert {s for c in configs for row in c.template for s in row} == set(EntrySign)
    assert any(c.numerator_bound == 1 for c in configs)
    assert any(c.numerator_bound == 2**31 for c in configs)
    assert {1, 2, 3, 7, 8, 9, 255} <= {c.denominator_bound for c in configs}
    for c in configs:
        yields = list(explore._draws(c))
        draws = list(draws_randrange(c))
        assert len(yields) == len(draws) == c.max_attempts, c
        for (scale, rows), draw in zip(yields, draws):
            assert rows == [[p * (scale // q) for p, q in row] for row in draw], c
    # both draw paths ran: the top bytes and the 32-bit words
    assert set(paths) == {8, 32}


def test_draws_clear_rows_as_they_are_drawn():
    # the integer rows the generator builds entry by entry are L A of the
    # drawn matrix A, with L = lcm(1..db) one constant per config; the
    # denominator bounds up to 255 give nontrivial denominators
    configs = _stream_configs()
    assert any(c.denominator_bound == 255 for c in configs)
    fractional = 0
    for c in configs:
        expected_scale = functools.reduce(math.lcm, range(1, c.denominator_bound + 1))
        for (scale, rows), draw in zip(explore._draws(c), draws_randrange(c)):
            assert scale == expected_scale, c
            assert all(type(v) is int for row in rows for v in row), c
            assert [[Fraction(v, scale) for v in row] for row in rows] == [
                [Fraction(p, q) for p, q in row] for row in draw
            ], c
            fractional += sum(Fraction(v, scale).denominator > 1 for row in rows for v in row)
    assert fractional > 100


def test_words_are_the_generator_outputs_in_order():
    # across two refill boundaries, as 32-bit words and as their top bytes
    count = 2 * explore._REFILL + 7
    expected = random.Random(99).getrandbits
    assert list(itertools.islice(explore._words(99), count)) == [
        expected(32) for _ in range(count)
    ]
    expected = random.Random(99).getrandbits
    assert list(itertools.islice(explore._words(99, 8), count)) == [
        expected(32) >> 24 for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# screens


def test_z_minor_screen_agrees_with_classifier():
    # Theorem 4.11: a Z-matrix has E0 exact order 2 iff its principal minors
    # of order <= n-2 are nonnegative and those of order n-1 negative.  The
    # audit's minor test (Fraction det) and conjecture 1's search screen
    # (on the row-cleared integer rows D A, as the search feeds it) must
    # both agree with the classifier.  Random Z-matrices rarely pass the
    # order-1 to 3 minors, so t I - J (J all ones; its order-k minors are
    # t^(k-1) (t - k), exact order 2 for n - 2 <= t < n - 1) with scaled
    # rows joins them, to reach exact order 2 at orders 5 and 6.
    rng = random.Random(3)
    verdicts = {True: 0, False: 0}
    large_hits = 0
    for index in range(240):
        n = rng.randint(3, 6)
        if index % 2:
            m = random_z_matrix(rng, n, num_bound=4, den_bound=3)
        else:
            t = Fraction(rng.randint(2 * n - 6, 2 * n - 1), 2)
            scale = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
            m = RatMatrix([[scale[i] * ((t if i == j else 0) - 1) for j in range(n)]
                           for i in range(n)])
        expected = exact_order(m, Variant.E0).k == 2
        verdicts[expected] += 1
        large_hits += expected and n >= 5
        breaks = _minor_breaks(n, lambda key: det(principal_submatrix(m, IndexSet(n, key))))
        assert (next(breaks, None) is None) == expected
        rows = _cleared_rows(m.entries)[1]
        assert (_exact_order_screen(n, 2, True)(rows) and _z_rows(rows)) == expected
    assert min(verdicts.values()) > 20 and large_hits


# ---------------------------------------------------------------------------
# searches


def test_search_exact_order_finds_3x3_hits():
    c = cfg(3, template_exact_order_pattern(3), max_attempts=500)
    report = search_exact_order(c, 2, Variant.E0, target_hits=10)
    assert report.hit_count == 10
    assert not report.counterexamples
    for hit in report.hits:
        assert exact_order(hit, Variant.E0).k == 2


def test_search_exact_order_nonneg_template_all_hits():
    c = cfg(2, template_nonneg(2), max_attempts=50)
    report = search_exact_order(c, 0, Variant.E0)
    assert report.hit_count == report.attempts == 50


def test_search_exact_order_validates_inputs():
    c = cfg(3, template_free(3))
    with pytest.raises(ValueError):
        search_exact_order(c, 7, Variant.E0)


def test_search_reports_are_reproducible():
    c = cfg(3, template_exact_order_pattern(3), max_attempts=300)
    a = search_exact_order(c, 2, Variant.E0, target_hits=5)
    b = search_exact_order(c, 2, Variant.E0, target_hits=5)
    assert a == b and isinstance(a, SearchReport)


def test_hit_rate_calibration_pattern_template():
    # the structural template is expected to hit well within 10^4 attempts
    c = GeneratorConfig(
        order=3,
        template=template_exact_order_pattern(3),
        numerator_bound=5,
        denominator_bound=5,
        seed=99,
        max_attempts=2000,
    )
    report = search_exact_order(c, 2, Variant.E0, target_hits=1)
    assert report.hit_count >= 1


def test_conjecture_1_small_run_clean():
    c = GeneratorConfig(
        order=4,
        template=template_z(4),
        numerator_bound=4,
        denominator_bound=2,
        diagonal_numerator_bound=8,
        seed=12,
        max_attempts=4000,
    )
    report = search_conjecture_1(c, target_hits=10)
    assert report.hit_count >= 10
    assert report.counterexamples == ()
    for hit in report.hits:
        assert is_Z(hit)
        assert exact_order(hit, Variant.E0).k == 2


def test_conjecture_2_small_run_clean():
    c = GeneratorConfig(
        order=4,
        template=template_diag_nonneg_off_free(4),
        numerator_bound=4,
        denominator_bound=2,
        diagonal_numerator_bound=8,
        free_weights=(12, 1, 2),
        seed=12,
        max_attempts=8000,
    )
    report = search_conjecture_2(c, target_hits=10)
    assert report.hit_count >= 10
    assert report.counterexamples == ()
    assert any("outside the Z class" in note for note in report.notes)


def test_conjecture_checkers_on_fixtures():
    # the 3x3 base case is settled; the 4x4 fixtures are the conjectures'
    # motivating instances and must be consistent
    assert conjecture_1_violations(M3_ORDER2_E0) == []
    assert conjecture_2_violations(M3_ORDER2_E0) == []
    assert conjecture_2_violations(M4_ORDER2_NONZ) == []
    assert conjecture_2_violations(M4_ORDER2_NONZ_B) == []


# Z-matrices of E0 exact order 3 = n - 1: the 3x3 theorems' hypothesis read
# along n - k = 1 instead of at k = 2.  det A1 = -874 with (A1^{-1})_31 =
# 39/874 > 0; det A2 = 25 > 0, with two negative eigenvalues.
Z_ORDER3_A1 = RatMatrix([[1, -5, -1, -4], [-1, 2, -2, -4], [-4, -3, 0, -1], [-1, -5, -5, 2]])
Z_ORDER3_A2 = RatMatrix([[0, -2, -1, -1], [-5, 1, -2, -2], [-1, -2, 0, -4], [-2, -3, -5, 0]])


@pytest.mark.parametrize(
    "a, conjecture_1, conjecture_2",
    [
        (Z_ORDER3_A1,
         ["inverse principal block for alpha={1,2,3} is not Z",
          "inverse principal block for alpha={1,3,4} is not Z"],
         ["inverse is not a Z-matrix"]),
        (Z_ORDER3_A2,
         [f"inverse principal block for alpha={{{alpha}}} is not Z"
          for alpha in ("1,2,3", "1,2,4", "1,3,4", "2,3,4")]
         + ["negative eigenvalue count != 1"],
         ["det A is not negative", "inverse is not a Z-matrix"]),
    ],
    ids=["A1", "A2"],
)
def test_conjecture_checkers_fail_at_exact_order_n_minus_1(a, conjecture_1, conjecture_2):
    # the conjectures rest on k = 2, not on n - k = 1: only the exact order
    # sets these Z-matrices apart from conjecture 1's class, and between
    # them they break both conclusions of each checker
    assert is_Z(a) and exact_order(a, Variant.E0).k == 3
    assert [failed for failed, _ in conjecture_1_violations(a)] == conjecture_1
    assert [failed for failed, _ in conjecture_2_violations(a)] == conjecture_2


def test_conjecture_1_checker_reports_non_z_and_undefined_blocks():
    # frozen: a positive off-diagonal entry of A^{-1} fails exactly the
    # size-(n-1) blocks that hold it, a singular A_aa (A nonsingular) or a
    # singular A leaves the block undefined
    spd = RatMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert conjecture_1_violations(spd) == [
        ("inverse principal block for alpha={1,3} is not Z", "RatMatrix[3/4 1/4; 1/4 3/4]"),
        ("negative eigenvalue count != 1", "count = 0"),
    ]
    singular_block = RatMatrix([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert conjecture_1_violations(singular_block) == [
        ("inverse block formula undefined for alpha={1,2}", "matrix is singular"),
        ("inverse block formula undefined for alpha={1,3}", "matrix is singular"),
    ]
    # A^{-1} has its positive off-diagonal entries in column 4 only
    mixed = RatMatrix([
        [1, Fraction(1, 2), -1, 0], [0, 2, -1, -1],
        [-1, -1, 1, Fraction(1, 3)], [-1, 0, -1, 3],
    ])
    assert conjecture_1_violations(mixed) == [
        ("inverse principal block for alpha={1,2,4} is not Z",
         "RatMatrix[-2 -1 0; -7/2 -1/2 1/4; -9/4 -3/4 3/8]"),
        ("inverse principal block for alpha={1,3,4} is not Z",
         "RatMatrix[-2 -3 0; -19/4 -39/8 1/8; -9/4 -21/8 3/8]"),
        ("inverse principal block for alpha={2,3,4} is not Z",
         "RatMatrix[-1/2 -15/4 1/4; -5/4 -39/8 1/8; -3/4 -21/8 3/8]"),
    ]
    singular = RatMatrix([[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, -1], [0, 1, -1, 1]])
    assert conjecture_1_violations(singular) == [
        (f"inverse block formula undefined for alpha={{{alpha}}}", "matrix is singular")
        for alpha in ("1,2,3", "1,2,4", "1,3,4", "2,3,4")
    ] + [("negative eigenvalue count != 1", "count = 0")]


def test_conjecture_2_checker_flags_wrong_sign():
    violations = conjecture_2_violations(RatMatrix.identity(3))
    assert any("not negative" in failed for failed, _ in violations)


def test_conjecture_2_checker_on_singular_and_non_z_inverses():
    # frozen: a singular A fails both the sign and the existence of the
    # inverse; det A < 0 with a positive off-diagonal entry in A^{-1} fails
    # the Z test alone
    assert conjecture_2_violations(RatMatrix([[1, 2], [2, 4]])) == [
        ("det A is not negative", "det = 0"),
        ("inverse does not exist", "det = 0"),
    ]
    swap = RatMatrix([[0, 1], [1, 0]])
    assert det(swap) == -1
    assert conjecture_2_violations(swap) == [
        ("inverse is not a Z-matrix", "RatMatrix[0 1; 1 0]"),
    ]


def test_negative_entry_checker_and_the_second_routes_on_degenerate_matrices():
    # a row with fewer than k negative entries is a violation, with both
    # profiles as evidence; a singular A has no inverse for the second
    # route to check, so that route agrees rather than raising
    a = RatMatrix([[1, -1, -1], [-1, 1, 0], [-1, -1, 1]])
    assert explore._negative_entry_violations(a, 2) == [(
        "a row or column has fewer than 2 negative entries",
        "row counts (2, 1, 2), column counts (2, 2, 1)",
    )]
    assert explore._negative_entry_violations(a, 1) == []
    assert explore._negative_entries_recounted(a, 2)
    assert not explore._negative_entries_recounted(a, 1)
    assert explore._independent_inverse_check(RatMatrix([[1, 2], [2, 4]]))
    assert explore._independent_inverse_check(M4_ORDER2_NONZ)


def test_negative_entries_search_regression_k2():
    c = GeneratorConfig(
        order=4,
        template=template_z(4),
        numerator_bound=4,
        denominator_bound=2,
        diagonal_numerator_bound=8,
        seed=21,
        max_attempts=4000,
    )
    report = search_negative_entries_question(c, k=2, target_hits=8)
    assert report.hit_count >= 8
    assert report.counterexamples == ()


def test_negative_entries_search_refuses_a_miscounted_profile(monkeypatch):
    # a checker that counts no negative entry reports a shortfall on every
    # hit; the recount on the integer rows finds none, so the search stops
    # rather than report it
    monkeypatch.setattr(
        explore, "negative_entry_profile",
        lambda a: NegativeEntryProfile((0,) * a.order, (0,) * a.order),
    )
    c = cfg(2, template_exact_order_pattern(2), max_attempts=400)
    with pytest.raises(AssertionError, match="counterexample failed re-validation"):
        search_negative_entries_question(c, k=1, target_hits=10)


def test_negative_entries_search_k1_2x2():
    c = cfg(2, template_exact_order_pattern(2), max_attempts=400)
    report = search_negative_entries_question(c, k=1, target_hits=10)
    assert report.hit_count >= 10
    assert report.counterexamples == ()


def test_negative_entries_fixture_has_three_per_row():
    from semimono.classify import negative_entry_profile

    profile = negative_entry_profile(M4_ORDER3)
    assert profile.min_row >= 3 and profile.min_column >= 3


def test_negative_entries_search_validates_k():
    c = cfg(3, template_free(3))
    with pytest.raises(ValueError):
        search_negative_entries_question(c, k=3)


def test_degenerate_stream_reports_zero_hits():
    # a nonnegative template can never produce a Z exact-order-2 hit
    c = cfg(3, template_nonneg(3), max_attempts=100)
    report = search_conjecture_1(c)
    assert report.attempts == 100
    assert report.hit_count == 0
    assert report.counterexamples == ()


def test_search_counterexample_path(monkeypatch, tmp_path, capsys):
    # A planted violation is the only way to reach the counterexample path:
    # no seeded run has found a real one.
    planted = [("planted failure", "test evidence")]
    monkeypatch.setattr(explore, "conjecture_2_violations", lambda a: planted)
    c = GeneratorConfig(
        order=4,
        template=template_diag_nonneg_off_free(4),
        numerator_bound=4,
        denominator_bound=2,
        diagonal_numerator_bound=8,
        free_weights=(12, 1, 2),
        seed=2,
        max_attempts=3000,
    )
    report = search_conjecture_2(c, target_hits=2)
    assert report.hit_count == 2
    assert report.counterexamples == tuple(
        Counterexample(m, "planted failure", "test evidence") for m in report.hits
    )

    out = tmp_path / "out"
    argv = ["explore", "--target", "conjecture2", "--n", "4", "--seed", "2",
            "--attempts", "3000", "--hits", "2", "--out", str(out)]
    assert main(argv) == 1
    assert "COUNTEREXAMPLE: planted failure" in capsys.readouterr().out
    ce = out / "counterexample_0001.txt"
    assert parse_matrix_text(ce.read_text(), str(ce)) == report.hits[0]

    # each leg of the triple check can refuse: the checker must reproduce
    # the failure, and the independent inverse route must agree
    once = iter([planted])
    monkeypatch.setattr(explore, "conjecture_2_violations", lambda a: next(once, []))
    with pytest.raises(AssertionError, match="refusing to report it"):
        search_conjecture_2(c, target_hits=2)
    monkeypatch.setattr(explore, "conjecture_2_violations", lambda a: planted)
    monkeypatch.setattr(explore, "_independent_inverse_check", lambda a: False)
    with pytest.raises(AssertionError, match="refusing to report it"):
        search_conjecture_2(c, target_hits=2)


CONJ1_CONFIG = GeneratorConfig(
    order=4, template=template_z(4), numerator_bound=4, denominator_bound=2,
    diagonal_numerator_bound=8, seed=12, max_attempts=4000,
)
CONJ2_CONFIG = GeneratorConfig(
    order=4, template=template_diag_nonneg_off_free(4), numerator_bound=4,
    denominator_bound=2, diagonal_numerator_bound=8, free_weights=(12, 1, 2),
    seed=12, max_attempts=8000,
)


@pytest.mark.parametrize(
    "search, config",
    [(search_conjecture_1, CONJ1_CONFIG), (search_conjecture_2, CONJ2_CONFIG)],
    ids=["conjecture1", "conjecture2"],
)
def test_a_screen_pass_the_classifier_rejects_raises(monkeypatch, search, config):
    # Each search's screen decides exact order 2 on the integer rows with
    # _exact_order_screen (followed by a Z test for conjecture 1), and every
    # pass is proven by certificates substituted into the hit's own D A.
    # One certificate that does not hold, here the first witness of the
    # third hit with its signs flipped, must stop the search, not drop the
    # candidate.
    real_check = explore._certified_exact_order
    checked = []
    corrupted = []

    def counting(rows, k, strict):
        checked.append(rows)
        return real_check(rows, k, strict)

    real_witness = feasibility._minimal_witness

    def flipped_once(rows, members, strict):
        y = real_witness(rows, members, strict)
        if len(checked) == 3 and not corrupted:
            corrupted.append(members)
            return [-v for v in y]
        return y

    monkeypatch.setattr(explore, "_certified_exact_order", counting)
    monkeypatch.setattr(feasibility, "_minimal_witness", flipped_once)
    with pytest.raises(AssertionError, match="screen and full classifier disagree"):
        search(config, target_hits=5)
    assert len(checked) == 3 and len(corrupted) == 1


@pytest.mark.parametrize(
    "search, config",
    [(search_conjecture_1, CONJ1_CONFIG), (search_conjecture_2, CONJ2_CONFIG)],
    ids=["conjecture1", "conjecture2"],
)
def test_a_wrong_sweep_verdict_raises(monkeypatch, search, config):
    # the screen passes one candidate it should reject: the exact_order
    # re-check catches it
    real_factory = classify._exact_order_screen
    flipped = []

    def wrong_factory(n, k, strict):
        real = real_factory(n, k, strict)

        def wrong_once(rows):
            verdict = real(rows)
            if not verdict and not flipped and all(row[i] > 0 for i, row in enumerate(rows)):
                flipped.append(rows)
                return True
            return verdict

        return wrong_once

    monkeypatch.setattr(explore, "_exact_order_screen", wrong_factory)
    with pytest.raises(AssertionError, match="screen and full classifier disagree"):
        search(config, target_hits=5)
    assert len(flipped) == 1


@pytest.mark.parametrize("variant", list(Variant))
def test_hits_with_three_passing_orders_get_farkas_member_certificates(monkeypatch, variant):
    # exact order 1 at n = 4: every support of size <= 3 needs a member
    # certificate, and a 3x3 block of the pattern template has a negative
    # entry in every row, so only the simplex's Farkas multipliers can
    # certify it.  The screen runs no simplex: every phase-1 call of the
    # search comes from the hit check.
    calls = Counter()
    inside = []
    real_phase1 = feasibility.phase1_feasible
    real_check = explore._certified_exact_order

    def phase1(*args):
        calls[bool(inside)] += 1
        return real_phase1(*args)

    def check(rows, k, strict):
        inside.append(True)
        try:
            return real_check(rows, k, strict)
        finally:
            inside.pop()

    monkeypatch.setattr(feasibility, "phase1_feasible", phase1)
    monkeypatch.setattr(explore, "_certified_exact_order", check)
    config = cfg(4, template_exact_order_pattern(4, variant), **_SEARCH_BOUNDS)
    report = search_exact_order(config, 1, variant, target_hits=5)
    assert report.hit_count == 5
    assert calls[True] >= 4 * 5 and calls[False] == 0
    assert all(exact_order(m, variant).k == 1 for m in report.hits)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_singular_failing_E_block_passes_the_hit_check(monkeypatch, n):
    # (n I - J) D, D a positive diagonal, has E exact order 1: its whole
    # support fails E through the kernel D^{-1} span(1), with B y = 0, and
    # its witness is a positive adjugate column (closed form up to order 3,
    # cofactors above)
    rows = [[(n * (i == j) - 1) * (j + 1) for j in range(n)] for i in range(n)]
    monkeypatch.setattr(explore, "_draws", lambda config: iter([(1, rows)]))
    report = search_exact_order(cfg(n, template_free(n), max_attempts=1), 1, Variant.E)
    assert report.hits == (RatMatrix(rows),)
    assert exact_order(report.hits[0], Variant.E).k == 1


@pytest.mark.parametrize("search", [search_conjecture_1, search_conjecture_2])
def test_conjecture_searches_refuse_orders_below_two(search):
    # exact order 2 needs n >= 2, so the search must refuse before it
    # samples, as every search does, not fail inside its screen
    with pytest.raises(ValueError, match="exact order must lie in 0..1"):
        search(cfg(1, template_free(1), max_attempts=10))


def test_conjecture_1_refuses_order_two(monkeypatch):
    # exact order 2 at n = 2 needs a11, a22 < 0, and -I has two negative
    # eigenvalues: the conjecture is stated for n >= 3, so order 2 is a
    # usage error raised before sampling, not a silent run with 0 hits
    def no_sampling(config):
        raise AssertionError("sampled")

    monkeypatch.setattr(explore, "_draws", no_sampling)
    with pytest.raises(ValueError, match="conjecture 1 needs n >= 3"):
        search_conjecture_1(cfg(2, template_free(2), max_attempts=300))


def _with_cell(template, i, j, sign):
    return tuple(
        tuple(sign if (r, c) == (i, j) else cell for c, cell in enumerate(row))
        for r, row in enumerate(template)
    )


_SEARCH_BOUNDS = dict(numerator_bound=4, denominator_bound=2, diagonal_numerator_bound=8)


@pytest.mark.parametrize(
    "config, non_z_candidates",
    [
        # 3x3 matrices of exact order 2 are Z (Theorem 3.4)
        (cfg(3, template_free(3), seed=1, max_attempts=4000, free_weights=(3, 1, 2)), False),
        (cfg(4, template_diag_nonneg_off_free(4), seed=5, max_attempts=1000,
             free_weights=(12, 1, 2), **_SEARCH_BOUNDS), True),
        (cfg(4, _with_cell(template_z(4), 0, 1, EntrySign.NONNEG), seed=3, max_attempts=1000,
             **_SEARCH_BOUNDS), True),
    ],
    ids=["free", "diag-nonneg-off-free", "z-one-nonneg-cell"],
)
def test_conjecture_1_keeps_the_z_test_where_a_cell_can_be_positive(config, non_z_candidates):
    # POS, NONNEG and FREE off-diagonal cells can draw a positive entry:
    # the hits are the Z ones among the exact-order-2 candidates that
    # conjecture 2 keeps
    report = search_conjecture_1(config)
    assert report.attempts == config.max_attempts
    assert all(is_Z(m) for m in report.hits)
    unscreened = search_conjecture_2(config).hits
    assert report.hits == tuple(m for m in unscreened if is_Z(m))
    # some candidates only the Z test turns away
    assert (len(unscreened) > report.hit_count) == non_z_candidates


def test_hits_share_their_entries():
    report = search_conjecture_1(CONJ1_CONFIG, target_hits=10)
    assert report.hit_count == 10
    # equal entries of different hits are one object
    shared = {}
    for hit in report.hits:
        for row in hit.entries:
            for v in row:
                assert shared.setdefault(v, v) is v
    # and every hit is the matrix built from fresh Fractions of its draw
    fresh = {}
    for draw in draws_randrange(CONJ1_CONFIG):
        m = RatMatrix([[Fraction(p, q) for p, q in row] for row in draw])
        fresh.setdefault(m, m)
    for hit in report.hits:
        assert hit in fresh and hash(hit) == hash(fresh[hit])


def test_draw_tables_are_shared_and_stay_bounded():
    # A search draws from tables cached per shape, not per config: a
    # second seed of the criterion-10 conjecture-2 config builds none.
    # Every cache stays bounded: 32-bit draws bring a new denominator
    # table with almost every numerator, and configs of many widths and
    # weights bring more numerator and free tables than the caches hold.
    caches = (explore._denominator_table, explore._numerator_table, explore._free_table)
    for cache in caches:
        cache.cache_clear()
    conj2 = cfg(4, template_diag_nonneg_off_free(4), numerator_bound=4, denominator_bound=2,
                diagonal_numerator_bound=8, free_weights=(12, 1, 2), max_attempts=50)
    list(explore._draws(conj2))
    built = [cache.cache_info().misses for cache in caches]
    assert all(built)
    list(explore._draws(replace(conj2, seed=6)))
    assert [cache.cache_info().misses for cache in caches] == built
    list(explore._draws(cfg(2, template_nonneg(2), numerator_bound=2**31, denominator_bound=3,
                            max_attempts=200)))
    for width in range(1, 90):
        list(explore._draws(cfg(2, template_free(2), numerator_bound=width,
                                free_weights=(1, 0, width), max_attempts=1)))
    for cache in caches:
        info, maxsize = cache.cache_info(), cache.cache_parameters()["maxsize"]
        assert info.misses > maxsize and info.currsize <= maxsize, cache


def test_entry_cache_stays_bounded():
    # every 2x2 nonnegative matrix has exact order 0, so every draw is a hit:
    # at the largest bounds the hits bring more distinct entries than the
    # cache holds
    maxsize = explore._entry.cache_parameters()["maxsize"]
    c = cfg(2, template_nonneg(2), numerator_bound=2**31, denominator_bound=255,
            max_attempts=400)
    explore._entry.cache_clear()
    report = search_exact_order(c, 0, Variant.E0)
    assert report.hit_count == 400
    info = explore._entry.cache_info()
    assert info.misses > maxsize and info.currsize <= maxsize
