"""Acceptance suite: every exit criterion checked exactly, one pass/fail
line printed per criterion.

All numeric assertions are exact (zero tolerance); the only non-exact
bounds are the stated wall-clock limits.
"""

import random
import time
from fractions import Fraction as F

from semimono.classify import (
    Variant,
    copositive_exact_order,
    exact_order,
    is_P0,
    is_Z,
    is_semimonotone,
)
from semimono.explore import (
    GeneratorConfig,
    search_conjecture_1,
    search_conjecture_2,
    search_exact_order,
    template_diag_nonneg_off_free,
    template_exact_order_pattern,
    template_z,
)
from semimono.feasibility import feasible_semistrict, feasible_strict
from semimono.lcp import q0_falsify
from semimono.ratcore import (
    RatMatrix,
    count_negative_eigenvalues,
    det,
    inverse,
    permutation_similarity,
)
from semimono.verify import audit_thm_4_11

from matrices import (
    COPOSITIVE_ONLY,
    M3_ORDER2_E,
    M3_ORDER2_E0,
    M4_ORDER2,
    M4_ORDER2_NONZ,
    M4_ORDER2_NONZ_B,
    M4_ORDER2_NONZ_B_INV,
    M4_ORDER2_NONZ_INV,
    M4_ORDER3,
    M5_ORDER2,
    M5_ORDER3,
    NONCLOSURE_A,
    NONCLOSURE_B,
    NONCLOSURE_PRODUCT,
    NONCLOSURE_SUM,
    SHIFT_SUM,
    STRICTLY_COPOSITIVE_ONLY,
)
from oracles import fm_feasible, random_matrix, random_symmetric, random_z_matrix

FIXTURES = [
    M3_ORDER2_E0,
    M3_ORDER2_E,
    M4_ORDER2_NONZ,
    M4_ORDER2_NONZ_B,
    M4_ORDER3,
    M5_ORDER3,
    M4_ORDER2,
    M5_ORDER2,
    NONCLOSURE_A,
    NONCLOSURE_SUM,
    SHIFT_SUM,
    COPOSITIVE_ONLY,
    STRICTLY_COPOSITIVE_ONLY,
]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_fixture_exact_orders():
    cases = [
        (M3_ORDER2_E0, Variant.E0, 2),
        (M3_ORDER2_E, Variant.E, 2),
        (M4_ORDER3, Variant.E0, 3),
        (M5_ORDER3, Variant.E0, 3),
        (M4_ORDER2, Variant.E0, 2),
        (M5_ORDER2, Variant.E0, 2),
    ]
    ok = True
    worst = 0.0
    for m, variant, expected in cases:
        exact_order.cache_clear()
        start = time.monotonic()
        result = exact_order(m, variant)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        ok = ok and result.k == expected and elapsed < 1.0
    report("criterion-1 fixture classification", ok, f"worst runtime {worst:.3f}s")


def test_criterion_2_fixture_inverses_bit_exact():
    ok = (
        inverse(M4_ORDER2_NONZ) == M4_ORDER2_NONZ_INV
        and inverse(M4_ORDER2_NONZ_B) == M4_ORDER2_NONZ_B_INV
    )
    report("criterion-2 printed inverses", ok)


def test_criterion_3_inverse_theorem_on_explored_3x3():
    start = time.monotonic()
    config = GeneratorConfig(
        order=3,
        template=template_exact_order_pattern(3),
        numerator_bound=5,
        denominator_bound=3,
        seed=301,
        max_attempts=10_000,
    )
    search = search_exact_order(config, 2, Variant.E0, target_hits=100)
    corpus = [M3_ORDER2_E0, *search.hits]
    failures = 0
    for m in corpus:
        d = det(m)
        if d >= 0:
            failures += 1
            continue
        if not is_Z(inverse(m)):
            failures += 1
            continue
        if count_negative_eigenvalues(m) != 1:
            failures += 1
    elapsed = time.monotonic() - start
    ok = len(corpus) >= 101 and failures == 0 and elapsed < 60.0
    report(
        "criterion-3 3x3 inverse theorem suite",
        ok,
        f"{len(corpus)} matrices, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_4_z_exact_order_two_suite():
    start = time.monotonic()
    failures = 0
    total = 0
    for n, seed in ((4, 401), (5, 402)):
        config = GeneratorConfig(
            order=n,
            template=template_z(n),
            numerator_bound=4,
            denominator_bound=2,
            diagonal_numerator_bound=8,
            seed=seed,
            max_attempts=200_000,
        )
        search = search_conjecture_1(config, target_hits=100)
        assert search.hit_count >= 100
        for m in search.hits:
            total += 1
            audit = audit_thm_4_11(m)
            if not (audit.hypotheses_met and audit.ok and len(audit.conclusions) == 5):
                failures += 1
    elapsed = time.monotonic() - start
    ok = total >= 200 and failures == 0 and elapsed < 300.0
    report(
        "criterion-4 Z exact-order-2 suite (n=4,5)",
        ok,
        f"{total} matrices, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_nonclosure_fixtures():
    computed_sum = NONCLOSURE_A + NONCLOSURE_B
    computed_product = NONCLOSURE_A @ NONCLOSURE_B
    ok = (
        computed_sum == NONCLOSURE_SUM
        and computed_product == NONCLOSURE_PRODUCT
        and exact_order(computed_sum, Variant.E0).k != 2
        and exact_order(computed_product, Variant.E0).k != 2
        and exact_order(SHIFT_SUM, Variant.E0).k != 2
    )
    report("criterion-5 non-closure fixtures", ok)


def test_criterion_6_copositive_fixtures():
    ok = (
        copositive_exact_order(COPOSITIVE_ONLY, Variant.E0).k == 2
        and exact_order(COPOSITIVE_ONLY, Variant.E0).k != 2
        and copositive_exact_order(STRICTLY_COPOSITIVE_ONLY, Variant.E).k == 2
        and exact_order(STRICTLY_COPOSITIVE_ONLY, Variant.E).k != 2
    )
    report("criterion-6 copositive exact-order fixtures", ok)


def test_criterion_7_oracle_equivalences():
    rng = random.Random(701)
    lp_fm_disagreements = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, num_bound=5, den_bound=3)
        if fm_feasible(m, strict=True).feasible != feasible_strict(m).feasible:
            lp_fm_disagreements += 1
        if (
            fm_feasible(m, strict=False).feasible
            != feasible_semistrict(m).feasible
        ):
            lp_fm_disagreements += 1

    z_disagreements = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        m = random_z_matrix(rng, n)
        if is_semimonotone(m).member != is_P0(m).member:
            z_disagreements += 1

    sym_disagreements = 0
    for _ in range(200):
        m = random_symmetric(rng, 4)
        for variant in (Variant.E0, Variant.E):
            if copositive_exact_order(m, variant) != exact_order(m, variant):
                sym_disagreements += 1

    ok = lp_fm_disagreements == 0 and z_disagreements == 0 and sym_disagreements == 0
    report(
        "criterion-7 oracle equivalences",
        ok,
        f"LP/FM {lp_fm_disagreements}, Z-E0/P0 {z_disagreements}, sym {sym_disagreements}",
    )


def test_criterion_8_metamorphic_invariance():
    rng = random.Random(801)
    corpus = list(FIXTURES)
    for _ in range(100):
        corpus.append(random_matrix(rng, rng.randint(2, 4), num_bound=4, den_bound=2))
    violations = 0
    for m in corpus:
        n = m.order
        transforms = [m.transpose()]
        for _ in range(10):
            sigma = list(range(n))
            rng.shuffle(sigma)
            transforms.append(permutation_similarity(m, sigma))
        for _ in range(10):
            d = RatMatrix.diagonal(
                [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            )
            transforms.append(d @ m if rng.random() < 0.5 else m @ d)
        for variant in (Variant.E0, Variant.E):
            base = exact_order(m, variant)
            for t in transforms:
                if exact_order(t, variant) != base:
                    violations += 1
    ok = violations == 0
    report(
        "criterion-8 metamorphic invariance",
        ok,
        f"{len(corpus)} matrices x 21 transforms x 2 variants, {violations} violations",
    )


def test_criterion_9_q0_sampling_fixture():
    result = q0_falsify(M3_ORDER2_E0, trials=2500, seed=901)
    ok = (
        result.feasible_count >= 200
        and result.solved_count == result.feasible_count
        and not result.violated
        and "falsify" in result.note
    )
    report(
        "criterion-9 Q0 sampling",
        ok,
        f"{result.feasible_count} feasible, {result.solved_count} solved",
    )


def test_criterion_10_conjecture_searches():
    start = time.monotonic()
    config1 = GeneratorConfig(
        order=4,
        template=template_z(4),
        numerator_bound=4,
        denominator_bound=2,
        diagonal_numerator_bound=8,
        seed=1001,
        max_attempts=600_000,
    )
    run1 = search_conjecture_1(config1, target_hits=1000)

    config2 = GeneratorConfig(
        order=4,
        template=template_diag_nonneg_off_free(4),
        numerator_bound=4,
        denominator_bound=2,
        diagonal_numerator_bound=8,
        free_weights=(12, 1, 2),
        seed=1002,
        max_attempts=600_000,
    )
    run2 = search_conjecture_2(config2, target_hits=1000)
    elapsed = time.monotonic() - start

    # either outcome is acceptable: a clean run, or a triple-validated
    # counterexample (the search refuses to report unvalidated ones)
    ok = run1.hit_count >= 1000 and run2.hit_count >= 1000
    detail = (
        f"conj1 {run1.hit_count} hits/{len(run1.counterexamples)} counterexamples, "
        f"conj2 {run2.hit_count} hits/{len(run2.counterexamples)} counterexamples, "
        f"{elapsed:.0f}s"
    )
    report("criterion-10 conjecture searches", ok, detail)
