"""Reducibility of scalar generalized Verma modules via exact tableau
combinatorics, for sl(n,C) and so(2n,C) with two removed simple roots."""

from .exact import (
    CosetClass,
    ExactScalar,
    IncomparableScalars,
    compare,
    coset_class,
    sub_is_integer,
    sum_is_integer,
    symbol,
)
from .gk import (
    ClassDecomposition,
    NonIntegralWeight,
    fold_class,
    gk_dimension,
    gk_dimension_of_weight,
    integrality_classes,
    is_integral,
)
from .harness import (
    GridSpec,
    MismatchReport,
    ParameterGrid,
    SweepReport,
    SweepRow,
    UnsupportedGrid,
    family_setups,
    grid_from_spec,
    render_diagram,
    report_to_csv,
    report_to_json,
    standard_grid,
    sweep,
    verify_family,
)
from .rootdata import (
    BlockPlan,
    IndexOutOfRange,
    InvalidParabolic,
    LieType,
    NilpotencyReport,
    ParabolicSetup,
    WeightVector,
    block_offsets,
    classify_parabolic,
    dim_nilradical,
    fundamental_weight,
    shifted_weight,
    weyl_vector,
)
from .tableaux import (
    Shape,
    conjugate,
    depth_sum,
    even_depth_sum,
    even_odd_counts,
    minus_double,
    rs_shape,
    rs_tableau,
)
from .verdict import (
    EqualParameters,
    Verdict,
    WrongLieType,
    criterion,
    criterion_a_diagonal,
    criterion_a_offdiagonal,
    criterion_d,
    evaluate,
    has_maximal_shape,
    reducible_oracle,
    single_weight_reducible,
)

__all__ = [name for name in dir() if not name.startswith("_")]
