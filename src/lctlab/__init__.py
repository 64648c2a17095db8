"""lctlab: exact singularity invariants at desk scale.

Sparse exact-rational polynomial and truncated-series arithmetic, Jacobian
ideals and Milnor numbers, constructive formal equivalence (Morse splitting
and Jacobian-square absorption), log canonical thresholds of monomial ideals
and of the diagonal/determinantal families, jet and contact-locus counting
over prime fields, and p-adic exponential sums with their decay exponents.
"""

__version__ = "0.1.0"

from .arcs import CodimEstimate, count_contact_jets, empirical_codim
from .budget import DEFAULT_BUDGET, BudgetExceededError
from .equiv import (
    CoordinateMap,
    MorsifyResult,
    Rank2Result,
    RankDropError,
    formal_equiv_rank2,
    morsify,
    tougeron,
    verify_map,
)
from .expsum import (
    ExpSumProfile,
    IgusaReport,
    ResidueHistogram,
    count_solutions,
    decay_profile,
    exp_sum,
    exp_sum_restricted,
    igusa_identity_check,
    residue_histogram,
)
from .jacobian import (
    IdealGens,
    Inconclusive,
    MembershipWitness,
    MilnorInequalityReport,
    NonIsolated,
    NotMember,
    check_milnor_inequality,
    ideal_D,
    ideal_power,
    ideal_product,
    ideal_sum,
    jacobian_ideal,
    membership_truncated,
    milnor_number,
    quadratic_rank,
)
from .lct import (
    BSRootTable,
    CorDReport,
    FamilyReport,
    LctCertificate,
    NewtonWitness,
    OrbitInvariants,
    RayValuation,
    check_corD,
    check_theorems,
    det_roots,
    lct_det_fJ2,
    lct_diag_fJ2,
    newton_lct,
    newton_lct_certificate,
    orbit_invariants,
    yano_roots,
)
from .polyring import (
    MultiplicityBound,
    ParseError,
    Polynomial,
    TruncatedSeries,
    divided_power,
    multiplicity,
    parse_poly,
    partial_derivative,
    poly_to_string,
    series_inverse,
    series_sqrt,
    substitute,
    substitute_shifted,
)
