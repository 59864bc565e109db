"""Reducibility of scalar generalized Verma modules via exact tableau
combinatorics, for sl(n,C) and so(2n,C) with two removed simple roots."""

from .exact import (
    ExactScalar,
    IncomparableScalars,
    sub_is_integer,
    sum_is_integer,
    symbol,
)
from .gk import (
    ClassDecomposition,
    gk_dimension,
    integrality_classes,
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
    classify_parabolic,
    shifted_weight,
)
from .tableaux import (
    Shape,
    conjugate,
    rs_shape,
    rs_tableau,
)
from .verdict import (
    Verdict,
    criterion,
    evaluate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
