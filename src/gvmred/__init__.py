"""Reducibility of scalar generalized Verma modules via exact tableau
combinatorics, for sl(n,C) and so(2n,C) with two removed simple roots."""

from .exact import (
    ExactScalar,
    IncomparableScalars,
    symbol,
)
from .gk import gk_dimension
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
    IndexOutOfRange,
    InvalidParabolic,
    LieType,
    ParabolicSetup,
)
from .tableaux import rs_tableau
from .verdict import (
    Verdict,
    criterion,
    evaluate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
