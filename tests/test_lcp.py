import random
from fractions import Fraction as F

import pytest

from semimono.lcp import (
    LcpInstance,
    LcpSolution,
    lcp_feasible,
    lcp_solve_enum,
    q0_falsify,
)
from semimono.ratcore import IndexSet, RatMatrix, all_supports, ratvec

from matrices import M3_ORDER2_E0, NON_Q0_MATRIX, NON_Q0_Q
from oracles import fm_point, random_p_matrix


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


def test_solution_satisfies_rejects_wrong_data():
    instance = inst([1, 1], RatMatrix.identity(2))
    bogus = LcpSolution((F(1), F(0)), (F(0), F(1)), IndexSet(2, (1,)))
    assert not bogus.satisfies(instance)
