import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from semimono import lcp
from semimono.classify import Variant, exact_order
from semimono.lcp import (
    LcpInstance,
    LcpSolution,
    lcp_feasible,
    lcp_solve_enum,
    q0_falsify,
)
from semimono.ratcore import IndexSet, RatMatrix, principal_submatrix, ratvec

import matrices
from matrices import CLASSIFY_FIXTURES, M3_ORDER2_E0, NON_Q0_MATRIX, NON_Q0_Q
from oracles import (
    all_supports,
    det_cofactor,
    fm_point,
    lcp_support_solutions_lp,
    planted_singular,
    random_p_matrix,
    rank,
    s_certificate_holds,
)


def inst(q, a):
    return LcpInstance(ratvec(q), a)


def test_instance_validates_dimensions():
    with pytest.raises(ValueError):
        LcpInstance(ratvec([1, 2, 3]), RatMatrix.identity(2))


def test_feasible_trivial_cases():
    out = lcp_feasible(inst([1, 1], RatMatrix.identity(2)))
    assert out.feasible and out.certificate == (F(0), F(0))
    assert not lcp_feasible(inst([-1], RatMatrix([[0]]))).feasible
    assert lcp_feasible(inst([-1, -1], RatMatrix.identity(2))).feasible


def test_feasible_certificate_substitutes():
    instance = inst([-1, -1], RatMatrix.identity(2))
    out = lcp_feasible(instance)
    z = out.certificate
    w = [qi + wi for qi, wi in zip(instance.q, instance.a @ z)]
    assert all(v >= 0 for v in z) and all(v >= 0 for v in w)


def test_enum_positive_q_gives_zero_solution_only():
    result = lcp_solve_enum(inst([1, 1], RatMatrix.identity(2)))
    assert [s.z for s in result.solutions] == [(F(0), F(0))]
    assert result.solutions[0].support.members == ()


def test_enum_identity_negative_q():
    result = lcp_solve_enum(inst([-1, -2], RatMatrix.identity(2)))
    assert [s.z for s in result.solutions] == [(F(1), F(2))]


def test_enum_fixture_consistency():
    # the fixture matrix is entrywise nonpositive, so q < 0 leaves FEA empty
    # and the enumeration must agree by returning nothing
    instance = inst([-1, -1, -1], M3_ORDER2_E0)
    assert not lcp_feasible(instance).feasible
    assert lcp_solve_enum(instance).solutions == ()
    # a nonnegative q is feasible and z = 0 solves it
    instance = inst([2, 3, 4], M3_ORDER2_E0)
    result = lcp_solve_enum(instance)
    assert result.solutions
    for sol in result.solutions:
        assert sol.satisfies(instance)


def test_enum_multiple_solutions_validate():
    instance = inst([-3, -3], RatMatrix([[1, 2], [2, 1]]))
    result = lcp_solve_enum(instance)
    zs = sorted(s.z for s in result.solutions)
    assert zs == [(F(0), F(3)), (F(1), F(1)), (F(3), F(0))]
    for sol in result.solutions:
        assert sol.satisfies(instance)
        assert sum(zi * wi for zi, wi in zip(sol.z, sol.w)) == 0


def test_solutions_imply_feasibility():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        a = RatMatrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        q = ratvec([rng.randint(-3, 3) for _ in range(n)])
        instance = LcpInstance(q, a)
        if lcp_solve_enum(instance).solutions:
            assert lcp_feasible(instance).feasible


def test_enum_solves_through_a_singular_block():
    # A_aa is singular on every support, and z = (1, 0) solves the instance
    instance = inst([0, -1], RatMatrix([[0, 0], [1, 0]]))
    result = lcp_solve_enum(instance)
    assert [(s.z, s.support.members) for s in result.solutions] == [((F(1), F(0)), (1,))]
    assert result.solutions[0].satisfies(instance)
    assert result.singular_supports == ()


def fm_support_point(instance, alpha):
    """Fourier-Motzkin on support alpha's system: z_a >= 0, A_aa z_a = -q_a
    and q_b + A_ba z_a >= 0.  Some z_a, or None when it is empty."""
    idx = alpha.zero_based()
    g = [[-1 if j == p else 0 for j in range(len(idx))] for p in range(len(idx))]
    h = [0] * len(idx)
    for i in range(instance.order):
        row = [instance.a[i, j] for j in idx]
        if i in idx:
            g += [row, [-v for v in row]]
            h += [-instance.q[i], instance.q[i]]
        else:
            g.append([-v for v in row])
            h.append(instance.q[i])
    return fm_point(g, h)


def test_enum_solves_iff_some_support_system_is_feasible():
    # 7 of these instances are solvable only through a singular block
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 3)
        a = RatMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        instance = inst([rng.randint(-1, 1) for _ in range(n)], a)
        solvable = all(qi >= 0 for qi in instance.q)
        for alpha in all_supports(n):
            point = fm_support_point(instance, alpha)
            if point is not None:
                solvable = True
                z = [F(0)] * n
                for i, v in zip(alpha.zero_based(), point):
                    z[i] = v
                w = tuple(qi + wi for qi, wi in zip(instance.q, a @ z))
                assert LcpSolution(tuple(z), w, alpha).satisfies(instance)
        result = lcp_solve_enum(instance)
        assert bool(result.solutions) == solvable
        assert all(sol.satisfies(instance) for sol in result.solutions)


# The enumeration yields one point per complementary support, and on a
# singular support with q_alpha = 0 phase 1's point is z = 0, so it misses
# the nonzero solution of these two E witnesses (alpha = {i}, a_ii = 0).
ENUMERATION_MISSES = {("COPOSITIVE_ONLY", Variant.E), ("NON_Q0_MATRIX", Variant.E)}


def test_classify_failure_witnesses_solve_an_lcp():
    # A second route from classify to lcp: A is E0 iff LCP(q, A) has only
    # the solution 0 for every q > 0, and E iff it does for every q >= 0
    # (Cottle, Pang & Stone 1992, 3.9).  Each failure witness (alpha, y) of
    # a golden fixture, y > 0 with A_aa y < 0 (<= 0 for E), gives q with
    # q_alpha = -A_aa y and q_i = max(1, -(A x)_i) off alpha, x = y padded
    # with zeros: then z = x is a nonzero solution, which substitution
    # must re-check.  The enumeration must find a nonzero solution too,
    # each re-checked, for every E0 witness (q > 0) and every E witness
    # but the known misses above.
    witnesses = Counter()
    misses = set()
    for name in CLASSIFY_FIXTURES:
        a = getattr(matrices, name)
        n = a.order
        for variant in Variant:
            witness = exact_order(a, variant).witness
            if witness is None:
                continue
            x = [F(0)] * n
            for i, yi in zip(witness.support.members, witness.vector):
                x[i - 1] = yi
            ax = a @ tuple(x)
            inside = set(witness.support.members)
            q = tuple(-v if i + 1 in inside else max(F(1), -v) for i, v in enumerate(ax))
            assert min(q) > 0 if variant is Variant.E0 else min(q) >= 0, (name, variant)
            inst = LcpInstance(q, a)
            w = tuple(qi + v for qi, v in zip(q, ax))
            assert LcpSolution(tuple(x), w, witness.support).satisfies(inst), (name, variant)
            nonzero = [s for s in lcp_solve_enum(inst).solutions if any(s.z)]
            assert all(s.satisfies(inst) for s in nonzero), (name, variant)
            if not nonzero:
                misses.add((name, variant))
            witnesses[variant] += 1
    assert misses <= ENUMERATION_MISSES
    assert witnesses[Variant.E0] >= 10 and witnesses[Variant.E] >= 10


def test_p_matrix_unique_solution():
    rng = random.Random(5)
    for _ in range(4):
        n = rng.randint(2, 4)
        a = random_p_matrix(rng, n)
        for _ in range(25):
            q = ratvec([Fq for Fq in (rng.randint(-6, 6) for _ in range(n))])
            result = lcp_solve_enum(LcpInstance(q, a))
            assert len(result.solutions) == 1


def test_q0_falsify_identity_clean():
    report = q0_falsify(RatMatrix.identity(2), trials=100, seed=1)
    assert not report.violated
    assert report.solved_count == report.feasible_count
    assert "falsify" in report.note


def test_q0_falsify_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        q0_falsify(RatMatrix.identity(2), trials=-1, seed=1)
    assert q0_falsify(RatMatrix.identity(2), trials=0, seed=1).trials == 0


def test_q0_falsify_fixture_clean():
    report = q0_falsify(M3_ORDER2_E0, trials=200, seed=2)
    assert not report.violated


def test_q0_falsify_catches_non_q0_matrix():
    instance = LcpInstance(NON_Q0_Q, NON_Q0_MATRIX)
    assert lcp_feasible(instance).feasible
    assert not lcp_solve_enum(instance).solutions
    report = q0_falsify(NON_Q0_MATRIX, trials=300, seed=3)
    assert report.violated
    for q in report.violations:
        bad = LcpInstance(q, NON_Q0_MATRIX)
        assert lcp_feasible(bad).feasible
        assert not lcp_solve_enum(bad).solutions


def _counting(monkeypatch, name):
    calls = []
    real = getattr(lcp, name)
    monkeypatch.setattr(lcp, name, lambda *args: calls.append(1) or real(*args))
    return calls


def test_q0_falsify_stops_at_the_first_solving_support(monkeypatch):
    # every q is feasible for this S-matrix and none of its principal blocks
    # is singular: its 7 blocks are eliminated once for all 30 trials, each
    # trial reads the factors up to its first solving support, and the first
    # of the 10 unsolved trials runs the one LP, on FEA(-1, A), whose point
    # makes all 10 violations without lcp_feasible
    a = RatMatrix([[1, -1, 2], [2, 1, -3], [1, -2, 1]])
    assert all(det_cofactor(principal_submatrix(a, alpha)) for alpha in all_supports(3))
    solves = _counting(monkeypatch, "_gauss_jordan")
    lps = _counting(monkeypatch, "phase1_feasible")
    feasibility_checks = _counting(monkeypatch, "lcp_feasible")
    lcp._factor.cache_clear()
    report = q0_falsify(a, trials=30, seed=4)
    assert (report.feasible_count, report.solved_count, len(report.violations)) == (30, 20, 10)
    assert len(solves) == 7
    assert len(feasibility_checks) == 0
    assert len(lps) == 1


def test_q0_falsify_refutes_by_the_farkas_vector_of_a_non_s_matrix(monkeypatch):
    # -I is no S-matrix: phase 1 on FEA(-1, -I) returns y = (1, 1, 1), and
    # FEA(q, -I) is empty iff some q_i < 0, which is also when no support
    # solves.  Of the 8 unsolved trials, the 6 with q_1 + q_2 + q_3 < 0 are
    # refuted by y; the 2 others ask lcp_feasible, whose LP finds FEA empty.
    a = -RatMatrix.identity(3)
    assert lcp._s_certificate(a) == (False, [1, 1, 1])
    lps = _counting(monkeypatch, "phase1_feasible")
    feasibility_checks = _counting(monkeypatch, "lcp_feasible")
    report = q0_falsify(a, trials=10, seed=0)
    assert (report.feasible_count, report.solved_count, report.violations) == (2, 2, ())
    assert len(feasibility_checks) == 2
    assert len(lps) == 1 + 2


def _q0_oracle(a, trials, seed):
    """q0_falsify's report recomputed trial by trial on its q stream: a q
    solves iff the all-LP support oracle finds a support, and is feasible iff
    it solves or lcp_feasible finds a point."""
    rng = random.Random(seed)
    feasible = solved = 0
    violations = []
    bound = lcp.Q0_NUMERATOR_BOUND
    for _ in range(trials):
        q = tuple(F(rng.randint(-bound, bound), rng.randint(1, lcp.Q0_DENOMINATOR_BOUND)) for _ in range(a.order))
        instance = LcpInstance(q, a)
        if next(lcp_support_solutions_lp(instance), None) is not None:
            feasible += 1
            solved += 1
        elif lcp_feasible(instance).feasible:
            feasible += 1
            violations.append(q)
    return lcp.Q0Report(trials, feasible, solved, tuple(violations))


def test_q0_falsify_matches_a_per_trial_oracle():
    # entries in {-1, 0, 1} make many blocks singular; q's denominators 2..4
    # divide none of L = 1, and 2 and 4 none of L = 3 for the matrices with
    # thirds
    rng = random.Random(14)
    matrices = [NON_Q0_MATRIX]
    for n, count in ((1, 6), (2, 20), (3, 20), (4, 8)):
        for k in range(count):
            den = 3 if k % 2 else 1
            rows = [[F(rng.randint(-1, 1), rng.choice((1, den))) for _ in range(n)] for _ in range(n)]
            matrices.append(RatMatrix(rows))
    singular = violated = 0
    for seed, a in enumerate(matrices):
        assert s_certificate_holds(a, *lcp._s_certificate(a))
        report = q0_falsify(a, trials=20, seed=seed)
        assert report == _q0_oracle(a, 20, seed)
        violated += report.violated
        singular += sum(not det_cofactor(principal_submatrix(a, alpha)) for alpha in all_supports(a.order))
    assert violated > 10 and singular > 100


@st.composite
def _negative_leaning_matrices(draw):
    """Orders 2..4, entries p/r with p in [-9, 3] and r in [1, 4]: about 17
    in 18 of these matrices are no S-matrix, so Q0 sampling mostly reads
    the Farkas vector and the LPs of the trials it does not refute."""
    n = draw(st.integers(2, 4))
    entry = st.builds(F, st.integers(-9, 3), st.integers(1, 4))
    return RatMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(_negative_leaning_matrices(), st.integers(0, 2**16))
def test_q0_falsify_matches_the_oracle_on_mostly_non_s_matrices(a, seed):
    assert s_certificate_holds(a, *lcp._s_certificate(a))
    assert q0_falsify(a, 20, seed) == _q0_oracle(a, 20, seed)


def test_s_certificate_check_rejects_wrong_vectors():
    a = RatMatrix([[1, -1], [0, F(1, 2)]])
    s_matrix, z = lcp._s_certificate(a)
    assert s_matrix and s_certificate_holds(a, True, z)
    assert not s_certificate_holds(a, True, [F(0), F(0)])
    assert not s_certificate_holds(a, False, z)
    b = -RatMatrix.identity(2)
    assert s_certificate_holds(b, False, [1, 0])
    assert not s_certificate_holds(b, False, [0, 0])
    assert not s_certificate_holds(b, False, [1, -1])
    assert not s_certificate_holds(RatMatrix.identity(2), False, [1, 0])


def _sweeps_agree(instance, monkeypatch):
    """The factored sweep and the all-LP oracle give the same supports and
    points, and the sweep runs one LP per singular block whose stored
    kernel vector y is orthogonal to q_a, and no other.  Returns the
    solutions and the counts of singular blocks refuted by y and sent to
    the LP."""
    lps = _counting(monkeypatch, "phase1_feasible")
    factors = lcp._factor(instance.a)
    got = list(lcp._support_solutions(instance.a, factors, instance.q))
    assert got == list(lcp_support_solutions_lp(instance))
    kernels = {members: y for members, _, _, _, y, _ in factors[1]}
    refuted = fallback = 0
    for alpha in all_supports(instance.order):
        if det_cofactor(principal_submatrix(instance.a, alpha)) == 0:
            y = kernels[alpha.members]
            if sum(yi * instance.q[i] for yi, i in zip(y, alpha.zero_based())):
                refuted += 1
            else:
                fallback += 1
    assert len(lps) == fallback
    monkeypatch.undo()
    return got, refuted, fallback


def test_support_sweep_matches_the_all_lp_oracle(monkeypatch):
    # entries and q in {-1, 0, 1}: many singular blocks and w = 0 boundaries,
    # and many q_a orthogonal to a block's kernel vector, so that both the
    # refutation by y and the LP run often
    rng = random.Random(12)
    solved = refuted = fallback = 0
    for n, count in ((1, 30), (2, 120), (3, 200), (4, 120), (5, 40)):
        for _ in range(count):
            a = RatMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            instance = inst([rng.randint(-1, 1) for _ in range(n)], a)
            got, by_kernel, by_lp = _sweeps_agree(instance, monkeypatch)
            solved += bool(got)
            refuted += by_kernel
            fallback += by_lp
    assert solved > 300 and refuted > 1000 and fallback > 400


def test_support_sweep_matches_the_oracle_on_planted_blocks(monkeypatch):
    # [[0, 1], [-1, 0]] swaps its rows and ends on the pivot p = -1 while
    # _gauss_jordan returns det = +1; [[0, 1], [1, 0]] has p = +1 and det -1.
    # Both solve only on the full support, at z = (1, 1).
    for a, q in (([[0, 1], [-1, 0]], [-1, 1]), ([[0, 1], [1, 0]], [-1, -1])):
        got, _, _ = _sweeps_agree(inst(q, RatMatrix(a)), monkeypatch)
        assert [(z, alpha.members) for z, alpha in got] == [((F(1), F(1)), (1, 2))]
    # the same swap inside a 3x3 block, with a third row that w must respect
    _sweeps_agree(inst([-1, 1, F(1, 2)], RatMatrix([[0, 1, 0], [-1, 0, 1], [2, -3, 1]])), monkeypatch)
    # a singular full block whose polyhedron has two vertices: q is
    # orthogonal to its left kernel (1, -1, 0), so the LP decides it, and on
    # the rational rows it ends at (0, 1, 5/4), on the row-cleared ones at
    # (1, 0, 7/4)
    instance = inst([-1, -1, F(-1, 4)], RatMatrix([[1, 1, 0], [1, 1, 0], [F(-3, 2), -1, 1]]))
    got, _, fallback = _sweeps_agree(instance, monkeypatch)
    assert got[-1] == ((F(0), F(1), F(5, 4)), IndexSet(3, (1, 2, 3))) and fallback >= 1
    # q denominators that divide none of A's row LCMs
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = RatMatrix([[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)] for _ in range(n)])
        q = [F(rng.randint(-5, 5), rng.choice((3, 5, 7))) for _ in range(n)]
        _sweeps_agree(inst(q, a), monkeypatch)


def test_factor_stores_a_left_kernel_vector_for_every_singular_block():
    # zero rows and columns, 1x1 zeros, rank <= m - 2 blocks and thirds: for
    # every block B = (L A)_aa, d = 0 iff B is singular, and then the stored
    # y is nonzero with y^T B = 0 by substitution
    rng = random.Random(16)
    corpus = [
        RatMatrix([[0]]),
        RatMatrix([[0, 0], [0, 0]]),
        RatMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]),
        RatMatrix([[1, 2, 3], [0, 0, 0], [4, 5, 6]]),
        RatMatrix([[1, 2, 3], [2, 4, 6], [3, 6, 9]]),
        RatMatrix([[F(1, 3), 0, 1], [F(2, 3), 0, 2], [1, 0, F(-1, 3)]]),
    ]
    corpus += [RatMatrix(planted_singular(rng, n, "rank <= n-2")) for n in (3, 4, 5) for _ in range(3)]
    for n in (3, 4, 5):  # rank 1: every block of order m has nullity m - 1 or m
        u, v = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(2))
        corpus.append(RatMatrix([[ui * vj for vj in v] for ui in u]))
    corpus += [
        RatMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        for n in (1, 2, 3, 4, 5) for _ in range(6)
    ]
    ranks = Counter()
    for a in corpus:
        scale, blocks = lcp._factor(a)
        for members, idx, d, _, y, _ in blocks:
            b = [[scale * a[i, j] for j in idx] for i in idx]
            m = len(idx)
            assert (d == 0) == (det_cofactor(RatMatrix(b)) == 0)
            if d:
                assert y == []
                continue
            assert any(y)
            assert all(sum(yi * row[j] for yi, row in zip(y, b)) == 0 for j in range(m))
            ranks[(m, m - rank(b))] += 1
    # 1x1 zeros, nullity 1 above order 1, and nullity >= 2 blocks, often
    assert ranks[(1, 1)] > 30
    assert sum(v for (m, k), v in ranks.items() if m > 1 and k == 1) > 150
    assert sum(v for (m, k), v in ranks.items() if k >= 2) > 30


@st.composite
def _sign_instances(draw):
    """Orders 1..4, entries of A in {-1, 0, 1} and of q in {-1, -1/2, 0,
    1/2, 1}: singular blocks, and q_a orthogonal to their kernel vectors,
    are common."""
    n = draw(st.integers(1, 4))
    a = RatMatrix([[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)])
    q = [F(draw(st.integers(-2, 2)), 2) for _ in range(n)]
    return inst(q, a)


@settings(max_examples=80, deadline=None)
@given(_sign_instances(), st.integers(0, 2**16))
def test_enum_and_q0_match_the_all_lp_oracle_on_sign_matrices(instance, seed):
    expected, seen = [], set()
    for z, alpha in lcp_support_solutions_lp(instance):
        if z not in seen:
            seen.add(z)
            expected.append((z, alpha))
    got = lcp_solve_enum(instance).solutions
    assert [(s.z, s.support) for s in got] == expected
    assert q0_falsify(instance.a, 10, seed) == _q0_oracle(instance.a, 10, seed)


def test_solution_satisfies_rejects_wrong_data():
    instance = inst([1, 1], RatMatrix.identity(2))
    bogus = LcpSolution((F(1), F(0)), (F(0), F(1)), IndexSet(2, (1,)))
    assert not bogus.satisfies(instance)
    short = LcpSolution((F(0),), (F(1), F(1)), IndexSet(2, ()))
    assert not short.satisfies(instance)
