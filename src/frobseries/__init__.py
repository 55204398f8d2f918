"""Truncated q-series arithmetic and finite-range verification of
generalized Frobenius partition congruences."""

from .series import (
    EXACT,
    MOD2,
    CoefficientRing,
    TruncatedSeries,
    TruncationError,
    add,
    invert,
    make_series,
    mul,
    pentagonal_series,
    pochhammer,
    reduce_mod,
    triangular_cube_series,
)
from .frobenius import (
    LaurentPolyOverSeries,
    cg_product,
    cphi_parity_witness,
    cphi_series,
    expand,
    partition_series,
    phi_parity_series,
    phi_series_double_sum,
)
from .oracle import GuardError, count_cphi, count_phi
from .congruences import (
    CongruenceClaim,
    ResidueClass,
    VerificationReport,
    andrews_p_squared_suite,
    cphi_even_suite,
    eligible_residues,
    garvan_sellers_lift_check,
    main_theorem_suite,
    pentagonal_class_reachable,
    residue_class,
    verify_claim,
)

__version__ = "0.1.0"
