"""The paper's 3x3 theorems on every matrix of a small grid, and a symbolic
proof of the 3x3 inverse-Z claim.

A 3x3 matrix has exact order 2 iff every diagonal entry is >= 0 (> 0 for
E), every off-diagonal entry is < 0, and every 2x2 principal minor is < 0
(<= 0 for E): the sign rule below.  Every such matrix with entries in
[-2, 2] lies in the Z-patterned subgrid (diagonal in {0, 1, 2},
off-diagonal in {-2, -1, 0}), which the census runs in full.
"""

import itertools
import random

import pytest

from semimono import verify
from semimono.classify import Variant, has_exact_order
from semimono.ratcore import RatMatrix

OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]


def sign_rule(rows, variant):
    strict = variant is Variant.E
    diagonal = all(rows[i][i] > 0 if strict else rows[i][i] >= 0 for i in range(3))
    off = all(rows[i][j] < 0 for i, j in OFF_DIAGONAL)
    minors = [rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i] for i, j in ((0, 1), (0, 2), (1, 2))]
    return diagonal and off and all(m <= 0 if strict else m < 0 for m in minors)


def matrix(diagonal, off):
    rows = [[0] * 3 for _ in range(3)]
    for i, v in enumerate(diagonal):
        rows[i][i] = v
    for (i, j), v in zip(OFF_DIAGONAL, off):
        rows[i][j] = v
    return rows


# the audits that apply to a 3x3 matrix of exact order 2 in each variant
AUDITS = {
    Variant.E0: ["thm3.4", "thm3.5", "prop4.10", "thm4.11", "n=k+1"],
    Variant.E: ["thm3.4", "prop4.10", "n=k+1"],
}


def test_z_subgrid_census_matches_the_sign_rule_and_every_audit():
    hits = {Variant.E0: 0, Variant.E: 0}
    audits = 0
    for diagonal in itertools.product((0, 1, 2), repeat=3):
        for off in itertools.product((-2, -1, 0), repeat=6):
            rows = matrix(diagonal, off)
            a = RatMatrix(rows)
            for variant in (Variant.E0, Variant.E):
                hit = has_exact_order(a, 2, variant)
                assert hit == sign_rule(rows, variant), (rows, variant)
                if not hit:
                    continue
                hits[variant] += 1
                for audit_id in AUDITS[variant]:
                    report = verify.AUDITS[audit_id](a, variant, 0, None)
                    assert report.hypotheses_met and report.ok, (rows, variant, audit_id)
                    assert all(c.passed for c in report.conclusions)
                    audits += 1
    assert hits == {Variant.E0: 724, Variant.E: 200}
    assert audits == 4220


def test_sign_rule_on_a_sample_of_the_full_grid():
    rng = random.Random(0)
    for _ in range(20_000):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        a = RatMatrix(rows)
        for variant in (Variant.E0, Variant.E):
            assert has_exact_order(a, 2, variant) == sign_rule(rows, variant), (rows, variant)


def test_3x3_sign_rule_proves_a_negative_determinant_and_a_z_inverse():
    # Write x_ij = -a_ij.  The identities below hold for every 3x3 matrix;
    # under the sign rule each term of det A is <= 0 and two are < 0, and
    # each term of an off-diagonal adjugate entry is >= 0 and one is > 0.
    # So det A < 0 and (A^{-1})_ij = adj(A)_ij / det A < 0 for i != j.
    sympy = pytest.importorskip("sympy")
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]

    def symbols(diagonal, off):
        return ({i: sympy.Symbol(f"a{i}{i}", **diagonal) for i in range(1, 4)},
                {(i, j): sympy.Symbol(f"x{i}{j}", **off) for i, j in pairs})

    def det_terms(d, x, m23):
        return [
            d[1] * m23,
            -d[2] * x[1, 3] * x[3, 1],
            -d[3] * x[1, 2] * x[2, 1],
            -x[1, 2] * x[2, 3] * x[3, 1],
            -x[1, 3] * x[3, 2] * x[2, 1],
        ]

    def adj_terms(d, x, i, j):
        k = 6 - i - j
        return [d[k] * x[i, j], x[i, k] * x[k, j]]

    d, x = symbols({}, {})
    a = sympy.Matrix(3, 3, lambda i, j: d[i + 1] if i == j else -x[i + 1, j + 1])
    m23 = d[2] * d[3] - x[2, 3] * x[3, 2]
    assert sympy.expand(a.det() - sum(det_terms(d, x, m23))) == 0
    adj = a.adjugate()
    for i, j in pairs:
        assert sympy.expand(adj[i - 1, j - 1] - sum(adj_terms(d, x, i, j))) == 0

    for variant in (Variant.E0, Variant.E):
        # the sign rule, with m23 standing for its 2x2 minor
        strict = variant is Variant.E
        d, x = symbols({"positive": True} if strict else {"nonnegative": True}, {"positive": True})
        m23 = sympy.Symbol("m23", **({"nonpositive": True} if strict else {"negative": True}))
        terms = det_terms(d, x, m23)
        assert all(t.is_nonpositive for t in terms) and terms[3].is_negative and terms[4].is_negative
        assert sympy.Add(*terms).is_negative
        for i, j in pairs:
            first, second = adj_terms(d, x, i, j)
            assert first.is_nonnegative and second.is_positive
            assert (first + second).is_positive
