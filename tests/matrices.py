"""Shared fixture matrices used across the test modules.

Names describe what each matrix is, not where it came from; expected values
next to them were either stated directly or frozen from the independent
oracles in ``oracles.py``.
"""

from fractions import Fraction as F

from semimono.ratcore import RatMatrix

# 3x3 matrices of exact order two: the Z one (E0 flavor) and the symmetric
# strictly-semimonotone-flavored one.
M3_ORDER2_E0 = RatMatrix([[0, -1, -1], [-2, 0, -1], [-3, -4, 0]])
M3_ORDER2_E = RatMatrix([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])

# 4x4 exact-order-two matrix that is not Z but has a Z inverse, plus the
# exact inverse it must reproduce bit for bit.
M4_ORDER2_NONZ = RatMatrix(
    [
        [1, F(1, 2), -1, -1],
        [F(1, 2), 1, -1, -1],
        [-1, -1, 1, 0],
        [-1, -1, 0, 1],
    ]
)
M4_ORDER2_NONZ_INV = RatMatrix(
    [
        [F(4, 5), F(-6, 5), F(-2, 5), F(-2, 5)],
        [F(-6, 5), F(4, 5), F(-2, 5), F(-2, 5)],
        [F(-2, 5), F(-2, 5), F(1, 5), F(-4, 5)],
        [F(-2, 5), F(-2, 5), F(-4, 5), F(1, 5)],
    ]
)

# a second non-symmetric, non-Z exact-order-two matrix with its exact inverse
M4_ORDER2_NONZ_B = RatMatrix(
    [
        [1, F(1, 2), -1, -1],
        [F(1, 3), 1, -1, -1],
        [-1, -1, 1, 0],
        [-1, -1, 0, 1],
    ]
)
M4_ORDER2_NONZ_B_INV = RatMatrix(
    [
        [F(2, 3), -1, F(-1, 3), F(-1, 3)],
        [F(-10, 9), F(2, 3), F(-4, 9), F(-4, 9)],
        [F(-4, 9), F(-1, 3), F(2, 9), F(-7, 9)],
        [F(-4, 9), F(-1, 3), F(-7, 9), F(2, 9)],
    ]
)

# exact order three
M4_ORDER3 = RatMatrix(
    [[1, -2, -3, -2], [-3, 1, -2, -3], [-2, -3, 1, -4], [-3, -2, -3, 1]]
)
M5_ORDER3 = RatMatrix(
    [
        [1, F(-1, 2), -1, -1, -1],
        [0, 1, -1, -1, -1],
        [-1, -1, 1, -1, -1],
        [-1, -1, -1, 1, 0],
        [-1, -1, -1, 0, 1],
    ]
)

# exact order two at orders 4 and 5
M4_ORDER2 = RatMatrix(
    [[1, F(1, 2), -1, -1], [0, 1, -1, -1], [-1, -1, 1, 0], [-1, -1, 0, 1]]
)
M5_ORDER2 = RatMatrix(
    [
        [1, 0, 0, -1, -1],
        [-1, 2, 0, 0, -1],
        [-1, F(-1, 2), 1, 0, 0],
        [0, -1, -1, 1, 0],
        [0, F(-1, 2), F(-1, 2), -1, 1],
    ]
)

# non-closure pair: both of exact order two, but neither their sum nor their
# product stays in the class
NONCLOSURE_A = RatMatrix([[10, -1, -1], [-1, 0, -1], [-1, -1, 0]])
NONCLOSURE_B = M3_ORDER2_E
NONCLOSURE_SUM = RatMatrix([[11, -3, -3], [-3, 1, -3], [-3, -3, 1]])
NONCLOSURE_PRODUCT = RatMatrix([[14, -19, -19], [1, 4, 1], [1, 1, 4]])

# adding a nonnegative matrix can also leave the class
SHIFT_BASE = RatMatrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
SHIFT_SUM = RatMatrix([[0, 0, -1], [-1, 0, -1], [-1, -1, 0]])

# copositive of exact order two without being semimonotone of exact order two
COPOSITIVE_ONLY = RatMatrix([[0, -1, -1], [0, 0, -1], [0, 0, 0]])
STRICTLY_COPOSITIVE_ONLY = RatMatrix([[1, -3, -3], [0, 1, -3], [0, 0, 1]])

# LCP fixture violating the Q0 property: FEA(q, A) is nonempty but SOL is
# empty (every complementary support fails, including the singular one)
NON_Q0_MATRIX = RatMatrix([[2, 1], [1, 0]])
NON_Q0_Q = (F(3, 4), F(-9, 4))

# The fixtures that the golden digests of `classify --json` cover, in order.
CLASSIFY_FIXTURES = (
    "M3_ORDER2_E0", "M3_ORDER2_E", "M4_ORDER2_NONZ", "M4_ORDER2_NONZ_INV",
    "M4_ORDER2_NONZ_B", "M4_ORDER2_NONZ_B_INV", "M4_ORDER3", "M5_ORDER3",
    "M4_ORDER2", "M5_ORDER2", "NONCLOSURE_A", "NONCLOSURE_SUM",
    "NONCLOSURE_PRODUCT", "SHIFT_BASE", "SHIFT_SUM", "COPOSITIVE_ONLY",
    "STRICTLY_COPOSITIVE_ONLY", "NON_Q0_MATRIX",
)
