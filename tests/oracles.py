"""Independent oracles and random generators for the test suite.

The determinant oracle is plain cofactor expansion, deliberately unrelated
to the fraction-free pivoting the package uses for det, inverse and the
simplex; it is capped at order 5 where its factorial cost is still instant.
"""

import random
from fractions import Fraction

from semimono.ratcore import RatMatrix


def det_cofactor(a: RatMatrix) -> Fraction:
    n = a.order
    if n > 5:
        raise ValueError("cofactor oracle capped at order 5")
    if n == 1:
        return a[0, 0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = RatMatrix([[a[i, c] for c in range(n) if c != j] for i in range(1, n)])
        total += sign * a[0, j] * det_cofactor(minor)
        sign = -sign
    return total


def random_fraction(rng: random.Random, num_bound: int = 9, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_matrix(
    rng: random.Random, n: int, num_bound: int = 9, den_bound: int = 4
) -> RatMatrix:
    return RatMatrix(
        [[random_fraction(rng, num_bound, den_bound) for _ in range(n)] for _ in range(n)]
    )


def random_invertible(rng: random.Random, n: int, **kw) -> RatMatrix:
    from semimono.ratcore import det

    while True:
        m = random_matrix(rng, n, **kw)
        if det(m) != 0:
            return m


def random_z_matrix(
    rng: random.Random, n: int, num_bound: int = 5, den_bound: int = 3
) -> RatMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                num = rng.randint(-num_bound, num_bound)
            else:
                num = -rng.randint(0, num_bound)
            row.append(Fraction(num, rng.randint(1, den_bound)))
        rows.append(row)
    return RatMatrix(rows)


def random_symmetric(
    rng: random.Random, n: int, num_bound: int = 5, den_bound: int = 3
) -> RatMatrix:
    vals = {}
    for i in range(n):
        for j in range(i, n):
            vals[(i, j)] = random_fraction(rng, num_bound, den_bound)
    return RatMatrix(
        [[vals[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    )


def random_p_matrix(rng: random.Random, n: int) -> RatMatrix:
    """B^T B + I for a random rational B: positive definite, hence all
    principal minors positive."""
    b = random_matrix(rng, n, num_bound=3, den_bound=2)
    return (b.transpose() @ b) + RatMatrix.identity(n)


def random_psd(rng: random.Random, n: int) -> RatMatrix:
    """B^T B: positive semidefinite, hence copositive."""
    b = random_matrix(rng, n, num_bound=3, den_bound=2)
    return b.transpose() @ b
