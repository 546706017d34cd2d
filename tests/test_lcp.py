import random
from fractions import Fraction as F

import pytest

from semimono import lcp
from semimono.lcp import (
    LcpInstance,
    LcpSolution,
    lcp_feasible,
    lcp_solve_enum,
    q0_falsify,
)
from semimono.ratcore import IndexSet, RatMatrix, all_supports, principal_submatrix, ratvec

from matrices import M3_ORDER2_E0, NON_Q0_MATRIX, NON_Q0_Q
from oracles import det_cofactor, fm_point, lcp_support_solutions_lp, random_p_matrix


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
    # every q is feasible for this matrix and none of its principal blocks is
    # singular: its 7 blocks are eliminated once for all 30 trials, each trial
    # reads the factors up to its first solving support, and only the 10
    # unsolved trials ask lcp_feasible, whose LP is the only one run
    a = RatMatrix([[1, -1, 2], [2, 1, -3], [1, -2, 1]])
    assert all(det_cofactor(principal_submatrix(a, alpha)) for alpha in all_supports(3))
    solves = _counting(monkeypatch, "_gauss_jordan")
    lps = _counting(monkeypatch, "phase1_feasible")
    feasibility_checks = _counting(monkeypatch, "lcp_feasible")
    lcp._factor.cache_clear()
    report = q0_falsify(a, trials=30, seed=4)
    assert (report.feasible_count, report.solved_count, len(report.violations)) == (30, 20, 10)
    assert len(solves) == 7
    assert len(feasibility_checks) == 10
    assert len(lps) == 10


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
        report = q0_falsify(a, trials=20, seed=seed)
        assert report == _q0_oracle(a, 20, seed)
        violated += report.violated
        singular += sum(not det_cofactor(principal_submatrix(a, alpha)) for alpha in all_supports(a.order))
    assert violated > 10 and singular > 100


def _sweeps_agree(instance, monkeypatch):
    """The factored sweep and the all-LP oracle give the same supports and
    points, and the sweep runs one LP per singular block and no other."""
    lps = _counting(monkeypatch, "phase1_feasible")
    got = list(lcp._support_solutions(instance.a, lcp._factor(instance.a), instance.q))
    assert got == list(lcp_support_solutions_lp(instance))
    singular = sum(
        det_cofactor(principal_submatrix(instance.a, alpha)) == 0
        for alpha in all_supports(instance.order)
    )
    assert len(lps) == singular
    monkeypatch.undo()
    return got, singular


def test_support_sweep_matches_the_all_lp_oracle(monkeypatch):
    # entries and q in {-1, 0, 1}: many singular blocks and w = 0 boundaries
    rng = random.Random(12)
    solved = singular = 0
    for n, count in ((1, 30), (2, 120), (3, 200), (4, 120), (5, 40)):
        for _ in range(count):
            a = RatMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            instance = inst([rng.randint(-1, 1) for _ in range(n)], a)
            got, blocks = _sweeps_agree(instance, monkeypatch)
            solved += bool(got)
            singular += blocks
    assert solved > 300 and singular > 1000


def test_support_sweep_matches_the_oracle_on_planted_blocks(monkeypatch):
    # [[0, 1], [-1, 0]] swaps its rows and ends on the pivot p = -1 while
    # _gauss_jordan returns det = +1; [[0, 1], [1, 0]] has p = +1 and det -1.
    # Both solve only on the full support, at z = (1, 1).
    for a, q in (([[0, 1], [-1, 0]], [-1, 1]), ([[0, 1], [1, 0]], [-1, -1])):
        got, _ = _sweeps_agree(inst(q, RatMatrix(a)), monkeypatch)
        assert [(z, alpha.members) for z, alpha in got] == [((F(1), F(1)), (1, 2))]
    # the same swap inside a 3x3 block, with a third row that w must respect
    _sweeps_agree(inst([-1, 1, F(1, 2)], RatMatrix([[0, 1, 0], [-1, 0, 1], [2, -3, 1]])), monkeypatch)
    # a singular full block whose polyhedron has two vertices: the LP on the
    # rational rows ends at (0, 1, 5/4), on the row-cleared ones at (1, 0, 7/4)
    instance = inst([-1, -1, F(-1, 4)], RatMatrix([[1, 1, 0], [1, 1, 0], [F(-3, 2), -1, 1]]))
    got, _ = _sweeps_agree(instance, monkeypatch)
    assert got[-1] == ((F(0), F(1), F(5, 4)), IndexSet(3, (1, 2, 3)))
    # q denominators that divide none of A's row LCMs
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = RatMatrix([[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)] for _ in range(n)])
        q = [F(rng.randint(-5, 5), rng.choice((3, 5, 7))) for _ in range(n)]
        _sweeps_agree(inst(q, a), monkeypatch)


def test_solution_satisfies_rejects_wrong_data():
    instance = inst([1, 1], RatMatrix.identity(2))
    bogus = LcpSolution((F(1), F(0)), (F(0), F(1)), IndexSet(2, (1,)))
    assert not bogus.satisfies(instance)
    short = LcpSolution((F(0),), (F(1), F(1)), IndexSet(2, ()))
    assert not short.satisfies(instance)
