"""Exact symbolic certification of BMW-type R-matrices.

Construction of the standard orthogonal and symplectic R-matrix families and
their multiparametric twists, derivation of the associated quantum-group data
(skew inverse, C/D matrices, contraction operator, bilinear pairings, X/Y),
and zero-residual verification of every defining identity over the field of
rational functions in q^(1/2).
"""

__version__ = "0.1.0"

from .scalars import (
    LaurentPoly,
    RationalField,
    SYMBOLIC,
    Scalar,
    is_unit_sign,
    parse,
)
from .tensors import (
    FieldMatrix,
    TensorOperator,
    add,
    char_poly,
    compose,
    embed,
    inverse,
    is_zero,
    linear_to_multi,
    multi_to_linear,
    partial_trace,
    permutation_op,
    rank,
    scale,
    solve_multi_rhs,
)
from .core import (
    KappaData,
    PairingPair,
    RMatrixSystem,
    check_bmw_relations,
    check_prop1,
    check_yang_baxter,
    detect_nu,
    factor_pairings,
    full_verification,
    rtt_lemma,
    skew_inverse,
    theorem_suite,
)
from .families import (
    build_F,
    build_multiparametric,
    build_standard,
    check_twist_compat,
    family_spec,
    pairings_match_up_to_gauge,
    standard_matrix,
    twisted_expected,
    twisted_matrix,
    validate_twist,
)
from .report import import_rmatrix
from .cli import JobConfig, export_family, main, run_job
