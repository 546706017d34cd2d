import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from semimono import explore, ratcore, verify
from semimono.classify import is_Z
from semimono.ratcore import (
    IndexSet,
    RatMatrix,
    SingularMatrixError,
    count_negative_eigenvalues,
    det,
    eigenvalue_sign_counts,
    inverse,
    is_irreducible,
    permutation_similarity,
    principal_submatrix,
    rat,
)

from matrices import (
    M3_ORDER2_E0,
    M3_ORDER2_E,
    M4_ORDER2_NONZ,
    M4_ORDER2_NONZ_B,
    M4_ORDER2_NONZ_B_INV,
    M4_ORDER2_NONZ_INV,
)
from oracles import (
    adjugate,
    block_inverse_principal,
    char_poly,
    char_poly_leverrier,
    complement,
    det_cofactor,
    has_repeated_root,
    random_invertible,
    random_matrix,
    random_symmetric,
    real_root_sign_counts_fraction,
    schur_complement,
    submatrix,
)

small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def square(n, elems=small_fraction):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n).map(
        RatMatrix
    )


# ---------------------------------------------------------------------------
# construction and submatrices


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    # Fraction alone reads "1_0" as 10, the Arabic-Indic digits U+0661 and
    # U+0662 as 1 and 2, and raises ZeroDivisionError on a zero denominator
    for token in ("1.5", "1_0", "\u0661", "1/\u0662", "3/0"):
        with pytest.raises(ValueError):
            rat(token)


def test_matrix_rejects_ragged_rows():
    # the matrix is square by construction: ragged, rectangular and empty
    # input are refused alike
    for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[]], []):
        with pytest.raises(ValueError, match="square"):
            RatMatrix(rows)


def test_sum_and_product_need_equal_orders():
    two, three = RatMatrix.identity(2), RatMatrix.identity(3)
    for op in (lambda a, b: a + b, lambda a, b: a @ b):
        with pytest.raises(ValueError, match="order mismatch"):
            op(two, three)
        with pytest.raises(ValueError, match="order mismatch"):
            op(three, two)
    with pytest.raises(ValueError, match="vector length does not match"):
        two @ [1, 2, 3]


def test_principal_submatrix_identity():
    assert principal_submatrix(RatMatrix.identity(3), IndexSet(3, (1, 3))) == RatMatrix.identity(2)


def test_principal_submatrix_fixture_leading_block():
    block = principal_submatrix(M3_ORDER2_E0, IndexSet(3, (1, 2)))
    assert block == RatMatrix([[0, -1], [-2, 0]])


def test_principal_submatrix_trailing_identity_block():
    block = principal_submatrix(M4_ORDER2_NONZ, IndexSet(4, (3, 4)))
    assert block == RatMatrix.identity(2)


def test_principal_submatrix_rejects_empty_alpha():
    with pytest.raises(ValueError):
        principal_submatrix(RatMatrix.identity(3), IndexSet.empty(3))
    with pytest.raises(ValueError, match="universe does not match"):
        principal_submatrix(RatMatrix.identity(3), IndexSet(4, (1,)))


def test_index_set_validation_and_complement():
    with pytest.raises(ValueError, match="universe size"):
        IndexSet(0, ())
    with pytest.raises(ValueError):
        IndexSet(3, (0, 1))
    with pytest.raises(ValueError):
        IndexSet(3, (2, 2))
    assert complement(IndexSet(5, (1, 4))).members == (2, 3, 5)


@settings(max_examples=30, deadline=None)
@given(square(3), st.sets(st.integers(1, 3), min_size=1).map(tuple))
def test_submatrix_transpose_commutes(a, members):
    alpha = IndexSet(3, tuple(sorted(members)))
    assert principal_submatrix(a.transpose(), alpha) == principal_submatrix(a, alpha).transpose()


# ---------------------------------------------------------------------------
# determinant


def test_det_identity():
    assert det(RatMatrix.identity(3)) == 1


def test_det_2x2_formula():
    assert det(RatMatrix([[0, -1], [-2, 0]])) == -2


def test_det_fixture_matches_cofactor_oracle():
    value = det_cofactor(M4_ORDER2_NONZ)
    assert value == F(-5, 4)  # frozen from the oracle
    assert det(M4_ORDER2_NONZ) == value


def test_det_random_against_cofactor_oracle():
    # _det_and_inverse reads det A off the inversion's own pass; the copy
    # with its first row repeated last is singular from order 2 on
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        for a in (m, RatMatrix(m.entries[:-1] + m.entries[:1])):
            d, inv = ratcore._det_and_inverse(a)
            assert det(a) == d == det_cofactor(a)
            assert inv == (None if d == 0 else inverse(a))


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(RatMatrix([[1, 2, 3], [4, 5, 6]]))


# ---------------------------------------------------------------------------
# adjugate and inverse


def test_adjugate_identity():
    assert adjugate(RatMatrix.identity(3)) == RatMatrix.identity(3)


def test_adjugate_z_pattern_instantiation():
    # signed-cofactor formulas for [[a,-b,-c],[-d,e,-f],[-g,-h,i]] evaluated
    # at a=e=i=0, b=c=f=1, d=2, g=3, h=4; entry (3,2) is a*h + b*g = 3
    expected = RatMatrix([[-4, 4, 1], [3, -3, 2], [8, 3, -2]])
    assert adjugate(M3_ORDER2_E0) == expected
    assert M3_ORDER2_E0 @ expected == det(M3_ORDER2_E0) * RatMatrix.identity(3)


def test_adjugate_equals_det_times_inverse_on_randoms():
    rng = random.Random(5)
    for _ in range(50):
        m = random_invertible(rng, 4, num_bound=5, den_bound=3)
        assert adjugate(m) == det(m) * inverse(m)


def test_adjugate_identity_holds_for_singular():
    m = RatMatrix([[1, 2], [2, 4]])
    assert m @ adjugate(m) == RatMatrix([[0, 0], [0, 0]])


def test_inverse_fixtures_bit_exact():
    assert inverse(M4_ORDER2_NONZ) == M4_ORDER2_NONZ_INV
    assert inverse(M4_ORDER2_NONZ_B) == M4_ORDER2_NONZ_B_INV


def test_inverse_identity():
    assert inverse(RatMatrix.identity(4)) == RatMatrix.identity(4)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(RatMatrix([[1, 2], [2, 4]]))


def _zero_leading_entry(a):
    rows = [list(row) for row in a.entries]
    rows[0][0] = F(0)
    return RatMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5)
    .flatmap(square)
    .flatmap(lambda a: st.sampled_from([a, _zero_leading_entry(a)]))
)
@example(RatMatrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))  # swap at the first pivot
@example(RatMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))  # swap at the second pivot
def test_inverse_roundtrip(a):
    # singularity decided by the cofactor oracle, not by det, which shares
    # its elimination kernel with inverse
    if det_cofactor(a) == 0:
        with pytest.raises(SingularMatrixError):
            inverse(a)
    else:
        assert a @ inverse(a) == RatMatrix.identity(a.order)


def test_block_inverse_formula_matches_inverse_block():
    rng = random.Random(23)
    done = 0
    while done < 25:
        m = random_invertible(rng, 4, num_bound=4, den_bound=2)
        alpha = IndexSet(4, (1, 2, 3))
        try:
            block = block_inverse_principal(m, alpha)
        except SingularMatrixError:
            continue
        assert block == principal_submatrix(inverse(m), alpha)
        done += 1


def test_block_inverse_inverts_each_block_once(monkeypatch):
    # conjecture 1 on a 4x4 matrix reads all four size-3 blocks from one
    # inverse of A, not from an inverse of each block and its complement
    orders = []
    real_inverse = ratcore.inverse

    def counting(m):
        orders.append(m.order)
        return real_inverse(m)

    monkeypatch.setattr(ratcore, "inverse", counting)
    monkeypatch.setattr(explore, "inverse", counting)
    assert explore.conjecture_1_violations(M4_ORDER2_NONZ) == []
    assert orders == [4]


_SMALL_ENTRIES = (F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2), F(3))


def _small_entry_matrices(seed, count):
    # a few values drawn often, so singular blocks and singular A both occur
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        yield RatMatrix([[rng.choice(_SMALL_ENTRIES) for _ in range(n)] for _ in range(n)])


def _size_n_minus_1_supports(n):
    return [IndexSet(n, combo) for combo in itertools.combinations(range(1, n + 1), n - 1)]


def test_conjecture_1_blocks_match_partitioned_formula():
    undefined = 0
    for m in _small_entry_matrices(41, 150):
        expected = []
        for alpha in _size_n_minus_1_supports(m.order):
            try:
                block = block_inverse_principal(m, alpha)
            except SingularMatrixError as exc:
                expected.append((f"inverse block formula undefined for alpha={alpha}", str(exc)))
                undefined += 1
                continue
            if not is_Z(block):
                expected.append((f"inverse principal block for alpha={alpha} is not Z", repr(block)))
        negatives = count_negative_eigenvalues(m)
        if negatives != 1:
            expected.append(("negative eigenvalue count != 1", f"count = {negatives}"))
        assert explore.conjecture_1_violations(m) == expected
    assert undefined > 0


def test_schur_scalar_matches_schur_complement():
    # the audits' Schur complement over an order-(n-1) block, det A / det A_aa
    # from one principal-minor reader, against the partitioned formula
    singular_blocks = singular_a = 0
    for m in _small_entry_matrices(43, 150):
        read_minor = ratcore._principal_minors(m)
        d = read_minor(tuple(range(1, m.order + 1)))
        singular_a += d == 0
        for alpha in _size_n_minus_1_supports(m.order):
            minor = read_minor(alpha.members)
            try:
                expected = schur_complement(m, alpha)
            except SingularMatrixError:
                assert minor == 0
                singular_blocks += 1
                continue
            assert expected == RatMatrix([[d / minor]])
    assert singular_blocks > 0 and singular_a > 0


def test_schur_identity():
    assert schur_complement(RatMatrix.identity(3), IndexSet(3, (1, 2))) == RatMatrix([[1]])


def test_schur_fixture_closed_form():
    # i - (g(ce+bf) + h(cd+af)) / (ae-bd) at the fixture values gives 11/2,
    # both by the partitioned formula and in the Theorem 3.5 audit evidence
    value = schur_complement(M3_ORDER2_E0, IndexSet(3, (1, 2)))
    assert value == RatMatrix([[F(11, 2)]])
    evidence = {c.name: c.evidence for c in verify.audit_thm_3x3_inverse(M3_ORDER2_E0).conclusions}
    assert evidence["Schur complement of A_{12,12} positive"] == "value = RatMatrix[11/2]"


def test_schur_singular_block_raises():
    m = RatMatrix([[0, 0, 1], [0, 0, 1], [1, 1, 1]])
    with pytest.raises(SingularMatrixError):
        schur_complement(m, IndexSet(3, (1, 2)))


def test_schur_determinant_identity_on_randoms():
    rng = random.Random(7)
    done = 0
    while done < 100:
        m = random_matrix(rng, 4, num_bound=5, den_bound=3)
        alpha = IndexSet(4, (1, 2))
        if det(principal_submatrix(m, alpha)) == 0:
            continue
        schur = schur_complement(m, alpha)
        assert det(m) == det(principal_submatrix(m, alpha)) * det(schur)
        done += 1


def test_general_submatrix_blocks():
    alpha = IndexSet(3, (1, 2))
    block = submatrix(M3_ORDER2_E0, complement(alpha), alpha)
    assert block == [[-3, -4]]


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalue counts


def test_char_poly_identity():
    assert char_poly(RatMatrix.identity(3)) == (F(-1), F(3), F(-3), F(1))  # (x - 1)^3


def test_char_poly_2x2():
    assert char_poly(RatMatrix([[0, -1], [-2, 0]])) == (F(-2), F(0), F(1))  # x^2 - 2


def test_char_poly_trace_and_det_coefficients():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, num_bound=4, den_bound=2)
        cp = char_poly(m)
        assert len(cp) == n + 1 and cp[n] == 1
        assert cp[n - 1] == -sum(m[i, i] for i in range(n))
        assert cp[0] == (-1) ** n * det(m)


def test_count_negative_eigenvalues_diagonal_cases():
    assert count_negative_eigenvalues(-RatMatrix.identity(3)) == 3
    assert count_negative_eigenvalues(RatMatrix.identity(3)) == 0


def test_count_negative_eigenvalues_fixture():
    assert count_negative_eigenvalues(M3_ORDER2_E0) == 1


def test_count_negative_multiplicity():
    m = RatMatrix.diagonal([-2, -2, -2, 0, 5])
    assert eigenvalue_sign_counts(m) == (3, 1, 1)


def test_eigen_counts_sum_on_symmetric():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = random_symmetric(rng, n)
        neg, zero, pos = eigenvalue_sign_counts(m)
        assert neg + zero + pos == n  # symmetric: every root is real


def test_eigen_count_matches_fixture_pair():
    assert count_negative_eigenvalues(M3_ORDER2_E) == 1
    assert count_negative_eigenvalues(M4_ORDER2_NONZ) == 1


def test_eigen_counts_use_one_scalar_not_row_scaling():
    # Row scaling by D = diag(6, 2) keeps exact order but moves the spectrum:
    # A has a complex pair, D A two negative eigenvalues.
    a = RatMatrix([[F(-3, 2), F(2, 3)], [-3, F(1, 2)]])
    assert eigenvalue_sign_counts(a) == (0, 0, 0)
    assert eigenvalue_sign_counts(RatMatrix([[-9, 4], [-6, 1]])) == (2, 0, 0)


def _spectral_case(rng, n):
    """A random order-n matrix of one of four kinds, drawn at random: dense, with
    each row over its own denominator; entries in {-1, 0, 1} over small
    denominators, often singular or with repeated roots; and a triangular
    matrix with repeated and zero diagonal entries, once plain and once
    with a rotation block (a complex pair), under an integer unimodular
    similarity and then a rational diagonal one, which gives its rows
    unequal denominators."""
    kind = rng.randrange(4)
    if kind == 0:
        dens = [rng.randint(1, 6) for _ in range(n)]
        return RatMatrix([[F(rng.randint(-9, 9), d * rng.randint(1, 2)) for _ in range(n)] for d in dens])
    if kind == 1:
        return RatMatrix([[F(rng.randint(-1, 1), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
    diag = [F(rng.choice([-2, -1, 0, 0, 1, 3]), rng.randint(1, 2)) for _ in range(n)]
    t = [
        [diag[i] if i == j else F(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else F(0) for j in range(n)]
        for i in range(n)
    ]
    if kind == 3 and n >= 2:
        t[0][0], t[0][1], t[1][0], t[1][1] = F(1), F(-2), F(2), F(1)  # roots 1 +- 2i
    u = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    u_inv = [[int(v) for v in row] for row in inverse(RatMatrix(u)).entries]
    ut = [[sum(u[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    m = [[sum(ut[i][k] * u_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    d = [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
    return RatMatrix([[d[i] * m[i][j] / d[j] for j in range(n)] for i in range(n)])


# orders 1-7, weighted to the small ones: Faddeev-LeVerrier costs n^4
# Fraction products
_SPECTRAL_ORDERS = (1,) * 6 + (2,) * 7 + (3,) * 8 + (4,) * 8 + (5,) * 6 + (6,) * 3 + (7,) * 2


def test_char_poly_and_counts_match_rational_oracles():
    rng = random.Random(2024)
    seen = {"repeated": 0, "zero": 0, "complex": 0, "unequal rows": 0}
    for case in range(2000):
        m = _spectral_case(rng, _SPECTRAL_ORDERS[case % len(_SPECTRAL_ORDERS)])
        cp = char_poly(m)
        assert cp == char_poly_leverrier(m)
        counts = eigenvalue_sign_counts(m)
        assert counts == real_root_sign_counts_fraction(cp)
        seen["repeated"] += has_repeated_root(cp)
        seen["zero"] += counts[1] > 0
        seen["complex"] += sum(counts) < m.order
        seen["unequal rows"] += len({lcm(*(v.denominator for v in row)) for row in m.entries}) > 1
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# irreducibility and permutation


def test_irreducible_cases():
    assert not is_irreducible(RatMatrix([[0, -1, -1], [0, 0, -1], [0, 0, 0]]))
    assert is_irreducible(M3_ORDER2_E0)
    assert is_irreducible(RatMatrix([[7]]))


def test_permutation_similarity_permutes_diagonal():
    m = RatMatrix.diagonal([1, 2, 3])
    p = permutation_similarity(m, [2, 0, 1])
    assert p == RatMatrix.diagonal([2, 3, 1])


def test_permutation_similarity_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_similarity(RatMatrix.identity(3), [0, 0, 2])


def test_matrix_equality_and_hash():
    a = RatMatrix([[1, F(1, 2)], [0, 1]])
    b = RatMatrix([["1", "1/2"], [0, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != RatMatrix.identity(2)
