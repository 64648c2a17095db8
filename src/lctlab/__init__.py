"""lctlab: exact singularity invariants at desk scale.

Sparse exact-rational polynomial and truncated-series arithmetic, Jacobian
ideals and Milnor numbers, constructive formal equivalence (Morse splitting
and Jacobian-square absorption), log canonical thresholds of monomial ideals
and of the diagonal/determinantal families, jet and contact-locus counting
over prime fields, and p-adic exponential sums with their decay exponents.

Only jet counting (``arcs``) and exponential sums (``expsum``) use numpy.
Their names, and the submodules themselves, are resolved on first access,
so ``import lctlab`` and every command but ``jets``, ``expsum``, ``decay``,
``igusa-check``, ``nk`` and ``golden`` run without loading numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

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

# each numpy-backed name with the submodule that defines it, imported on first access
_LAZY = {
    "CodimEstimate": "arcs",
    "count_contact_jets": "arcs",
    "empirical_codim": "arcs",
    "ExpSumProfile": "expsum",
    "IgusaReport": "expsum",
    "ResidueHistogram": "expsum",
    "count_solutions": "expsum",
    "decay_profile": "expsum",
    "exp_sum": "expsum",
    "exp_sum_restricted": "expsum",
    "igusa_identity_check": "expsum",
    "residue_histogram": "expsum",
}
_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name):
    """Import ``arcs`` or ``expsum`` on the first access to one of its names
    (or to the submodule), and keep a name's value as a module global."""
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})
