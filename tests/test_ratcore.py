import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from semimono import explore, ratcore
from semimono.ratcore import (
    IndexSet,
    RatMatrix,
    SingularBlockError,
    SingularMatrixError,
    block_inverse_principal,
    char_poly,
    count_negative_eigenvalues,
    det,
    eigenvalue_sign_counts,
    inverse,
    is_irreducible,
    permutation_similarity,
    principal_submatrix,
    rat,
    schur_complement,
    submatrix,
)

from matrices import (
    M3_ORDER2_E0,
    M3_ORDER2_E,
    M4_ORDER2_NONZ,
    M4_ORDER2_NONZ_B,
    M4_ORDER2_NONZ_B_INV,
    M4_ORDER2_NONZ_INV,
)
from oracles import adjugate, det_cofactor, random_invertible, random_matrix, random_symmetric

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
    with pytest.raises(ValueError):
        rat("1.5")


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])


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


def test_index_set_validation_and_complement():
    with pytest.raises(ValueError):
        IndexSet(3, (0, 1))
    with pytest.raises(ValueError):
        IndexSet(3, (2, 2))
    assert IndexSet(5, (1, 4)).complement().members == (2, 3, 5)


@settings(max_examples=30, deadline=None)
@given(square(3), st.sets(st.integers(1, 3), min_size=1).map(tuple))
def test_submatrix_transpose_commutes(a, members):
    alpha = IndexSet.of(3, members)
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
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        assert det(m) == det_cofactor(m)


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
        except (SingularMatrixError, SingularBlockError):
            continue
        assert block == principal_submatrix(inverse(m), alpha)
        done += 1


def test_block_inverse_inverts_each_block_once(monkeypatch):
    # conjecture 1 on a 4x4 matrix: per alpha of size 3, one inverse of
    # A_aa and one of the 1x1 Schur complement
    orders = []
    real_inverse = ratcore.inverse
    monkeypatch.setattr(ratcore, "inverse", lambda m: orders.append(m.order) or real_inverse(m))
    assert explore.conjecture_1_violations(M4_ORDER2_NONZ) == []
    assert sorted(orders) == [1, 1, 1, 1, 3, 3, 3, 3]


# ---------------------------------------------------------------------------
# Schur complements


def test_schur_identity():
    assert schur_complement(RatMatrix.identity(3), IndexSet(3, (1, 2))) == RatMatrix([[1]])


def test_schur_fixture_closed_form():
    # i - (g(ce+bf) + h(cd+af)) / (ae-bd) at the fixture values gives 11/2
    value = schur_complement(M3_ORDER2_E0, IndexSet(3, (1, 2)))
    assert value == RatMatrix([[F(11, 2)]])


def test_schur_singular_block_raises():
    m = RatMatrix([[0, 0, 1], [0, 0, 1], [1, 1, 1]])
    with pytest.raises(SingularBlockError):
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
    comp = alpha.complement()
    block = submatrix(M3_ORDER2_E0, comp, alpha)
    assert block == RatMatrix([[-3, -4]])


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
        assert cp[n - 1] == -m.trace()
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
