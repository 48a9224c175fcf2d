"""Computable models of Leavitt algebras on weighted l^p spaces: exact
symbolic normal forms, finite measure-space transformations, a spatial
partial-isometry calculus with a decomposition detector, graded
representations, and operator p-norm estimation."""

from .leavitt import (
    QC,
    AlgebraElement,
    AlgebraKind,
    cohn,
    gen_s,
    gen_t,
    graded_components,
    leavitt,
    leavitt_infinity,
    linear_comb_s,
    linear_comb_t,
    matrix_unit_embed,
    monomial,
    mul,
    normal_form,
    prime,
    same_length_form,
    star,
    unit,
    words,
    zero,
)
from .grammar import element_from_json, element_to_json, format_element, parse_element
from .measure import (
    AtomFunction,
    FiniteMeasureSpace,
    SetTransformation,
    compose,
    disjoint_union,
    identity_transformation,
    indicator,
    product_space,
    pullback_measure,
    pushforward_function,
    pushforward_measure,
    rn_derivative,
)
from .spatial import (
    OperatorMatrix,
    Rejection,
    SemispatialDecomposition,
    SpatialSystem,
    classify_idempotent,
    compose_systems,
    conjugate_exponent,
    detect,
    dual,
    identity_system,
    materialize,
    pairing_adjoint,
    reverse,
    tensor_systems,
    vector_norm,
)
from .pnorm import (
    NormResult,
    NormSequence,
    lp_norm,
    norm_sequence,
    oracle_grid,
    power_estimate,
    rank_one_exact,
)
from .reps import (
    GradedRep,
    SpatialityReport,
    block_scalar_twist,
    check_relations,
    direct_sum_p,
    dual_rep,
    evaluate,
    fourier_twist,
    fourier_twist_table,
    free_rep,
    interval_rep,
    reconstruct_t_from_s,
    sequence_rep,
    spatiality_report,
    tensor_identity,
    twist_by_invertible,
    twist_matrix,
)

__version__ = "0.1.0"
