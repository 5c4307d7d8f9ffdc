"""Exact-arithmetic workbench for nilpotent almost-commuting pairs in sp(2n).

Everything is computed over Q(sqrt2) with no floating point: the Lie algebra
sp(2n) and its Cartan-Weyl basis, the Weyl algebra with its quadratic
co-moment and oscillator module, the partition census of the nilpotent
almost-commuting scheme, truncated ideal linear algebra, and Dunkl-type
operators for the hyperoctahedral group.
"""

from .field import FieldScalar, fs
from .poly import MultiPoly, monomials, count_monomials
from .linalg import truncated_ideal_dim, sparse_rank
from .splie import (
    MatF,
    RootDatumC,
    sp_basis,
    sp_dim,
    dual_basis,
    bracket,
    trace_pair,
    raw_square,
    centralizer_dim,
    omega,
    is_sp,
)
from .weylosc import (
    WeylElement,
    OscVector,
    LinearVectorField,
    symmetrize_quadratic,
    classical_comoment,
    theta1,
    theta0,
    osc_apply,
    weight_zero_scalar,
)
from .orbits import (
    Sl2Triple,
    CensusRow,
    partitions_spn,
    component_types,
    nilpotent_rep,
    sl2_complete,
    census,
    verify_sl2_square_lemma,
    sl2_lowest_coefficient_check,
)
from .varieties import (
    SchemePoint,
    TangentReport,
    StratumReport,
    moment2,
    ideal_generators,
    theta1_kills_minors,
    sample_xnil_point,
    lagrangian_check,
    positive_weight_space,
    stratum_tangent_check,
    embedding_pullback_check,
    hilbert_compare,
)
from .cherednik import (
    Params,
    SignedPerm,
    FormalRadialOperator,
    w_act,
    reflection,
    dunkl_apply,
    check_hc_relation,
    dunkl_commute,
    build_Lc,
    radial_match,
)

__all__ = [name for name in dir() if not name.startswith("_")]
