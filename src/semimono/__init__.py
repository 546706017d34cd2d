"""semimono: an exact-arithmetic laboratory for semimonotone matrix classes.

Classify square rational matrices into the semimonotonicity hierarchy
(semimonotone, strictly semimonotone, the almost variants, and exact order
k), audit the structural theorems that govern those classes, solve linear
complementarity instances by support enumeration, and run seeded randomized
searches against the open conjectures.  Every computation is exact over the
rationals; there is no floating point anywhere.
"""

from .classify import (
    ClassLabel,
    ClassVerdict,
    ExactOrderResult,
    MinorWitness,
    OrderStatus,
    SupportWitness,
    Variant,
    copositive_exact_order,
    exact_order,
    has_exact_order,
    is_P,
    is_P0,
    is_Z,
    is_almost_semimonotone,
    is_copositive,
    is_inverse_Z,
    is_nonnegative,
    is_semimonotone,
    is_strictly_copositive,
    is_strictly_semimonotone,
    negative_entry_profile,
)
from .feasibility import (
    FeasibilityOutcome,
    Strictness,
    feasible_semistrict,
    feasible_strict,
)
from .lcp import LcpInstance, LcpSolution, lcp_feasible, lcp_solve_enum, q0_falsify
from .ratcore import (
    IndexSet,
    RatMatrix,
    SingularMatrixError,
    count_negative_eigenvalues,
    det,
    inverse,
    is_irreducible,
    principal_submatrix,
    rat,
    ratvec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
