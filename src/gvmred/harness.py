"""Parameter grids, bulk sweeps, criterion-vs-oracle verification, diagrams.

A standard grid walks both parameters over a half-step rational range that
extends past every reducibility boundary, adds a non-half-integral rational
and the generic symbols tau and sigma on each axis, and couples symbol
offsets (a+tau, b-tau) so the "integral sum, non-integral parts" branches
are exercised.  Sweeps are deterministic: rows are emitted in grid order.

A sweep decides each grid cell once.  A cell is a distinct pair of a
point's exact form values over a set of forms and its criterion values
(``verdict.criterion_values``: z1, z2 and z1 + z2, each an int when it is
an integer, else None).  Only the numbering is shared: the criterion's
values are still read at every point by its own integrality code, and on
the standard grids of type A up to rank 9 and type D up to rank 10 they
split no form cell.  The grid keeps, for every setup swept over it, each
built on first use: the exact form values per form
(``ParameterGrid.form_column``), the criterion values per point
(``ParameterGrid.criterion_values``), the cells per form set
(``ParameterGrid.form_cells``, numbered in order of first occurrence; the
setups of one type-A rank share one) and the points transposed
(``ParameterGrid.point_columns``).  The cells are about a sixth of the
points on the standard grids of type A up to rank 5, and a quarter in
type D up to rank 6.

``sweep`` runs ``verdict.criterion_column`` once over the cells, and
fills its GK memo, from each cell's exact values clamped at the setup's
windows to a GK dimension, in one pass over the cells.  Each cell gets
one outcome: the ``Verdict`` shared by every cell with its GK dimension
and criterion, or what raised.  A raising miss costs every point of its
cell and is not memoised, so the next cell with the same key misses
again; a raising column pass costs every point.  The rows and the errors
are built in one pass of ``map``, ``zip`` and ``compress`` over the
points' cells.  No GK value or verdict is cached on the grid, and the
memo lives for one sweep.  The one-point route, ``verdict.evaluate``,
serves ``gvmred reduce``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress, count
from operator import not_
from typing import NamedTuple

from . import gk, verdict
from .exact import SYMBOLS, DecodedPoint, ExactScalar, decode_point, form_column, saturate, symbol
from .rootdata import FrozenRecord, LieType, ParabolicSetup
from .verdict import CriterionValues, Verdict, criterion_values

# Unused here; kept importable from this module, where perfbench/tracing.py
# wraps it.
from .verdict import evaluate  # noqa: F401


class UnsupportedGrid(ValueError):
    """The report's grid cannot be drawn as a lattice diagram."""


Point = tuple[ExactScalar, ExactScalar]
Axis = tuple[ExactScalar, ...]
# (the cell index of every point, the exact form values of every cell, the
# criterion values of every cell)
FormCells = tuple[
    tuple[int, ...], tuple[tuple["int | None", ...], ...], tuple[CriterionValues, ...]
]

EXTRA_RATIONALS = (Fraction(1, 3),)
# Largest grid a spec may describe: about 100 times the standard grid of
# rank 9 (1 893 points).
MAX_GRID_POINTS = 200_000
# Smallest rank with a two-step non-maximal parabolic, per family.
FAMILY_MIN_N = {"A": 3, "D": 4}
# Largest family a verification may sweep, in standard-grid points before
# de-duplication.  The largest families under it, A up to rank 14 (923 650
# points) and D up to rank 43 (985 080), take about 1.5 s and 7.3 s with
# `gvmred verify` (2 CPUs, Python 3.11.7, interpreter start included);
# per-point cost grows with the rank, faster in type D.
MAX_FAMILY_POINTS = 1_000_000


class GridSpec(FrozenRecord):
    _fields = ("lo", "hi", "step")

    def __init__(self, lo: Fraction, hi: Fraction, step: Fraction = Fraction(1, 2)):
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        if hi < lo:
            raise ValueError(f"grid bounds must have lo <= hi, got lo={lo}, hi={hi}")
        self.__dict__.update(lo=lo, hi=hi, step=step)
        if self.point_bound > MAX_GRID_POINTS:
            raise ValueError(  # the bound itself may have too many digits to print
                f"grid [{self.lo}, {self.hi}] step {self.step} would hold more than "
                f"{MAX_GRID_POINTS} points"
            )

    @property
    def axis_length(self) -> int:
        """Number of rationals lo, lo + step, ... up to hi."""
        return (self.hi - self.lo) // self.step + 1

    @property
    def point_bound(self) -> int:
        """Points of ``grid_from_spec(self)`` before de-duplication."""
        length = self.axis_length
        axis = length + len(EXTRA_RATIONALS) + len(SYMBOLS)
        return axis * axis + length * length + length

    def rationals(self) -> list[Fraction]:
        return [self.lo + i * self.step for i in range(self.axis_length)]


class ParameterGrid(FrozenRecord):
    _fields = ("z1_values", "z2_values", "extra_points")

    def __init__(self, z1_values: Axis, z2_values: Axis, extra_points: tuple[Point, ...] = ()):
        self.__dict__.update(z1_values=z1_values, z2_values=z2_values, extra_points=extra_points)

    def points(self) -> tuple[Point, ...]:
        """Every point once, in grid order; listed on the first call."""
        return self._points

    @cached_property
    def _points(self) -> tuple[Point, ...]:
        seen: dict[Point, None] = {}
        for a in self.z1_values:
            for b in self.z2_values:
                seen.setdefault((a, b))
        for pt in self.extra_points:
            seen.setdefault(pt)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self._points)

    def point_columns(self) -> tuple[Axis, Axis]:
        """(z1 of every point, z2 of every point), in grid order: the
        points transposed on the first call and kept, like the form
        columns, for every setup swept over this grid."""
        return self._point_columns

    @cached_property
    def _point_columns(self) -> tuple[Axis, Axis]:
        return tuple(zip(*self._points)) or ((), ())

    def form_column(self, form: tuple[int, int]) -> tuple[int | None, ...]:
        """(x*z1 + y*z2)/2 at every point, in grid order, for ``form`` =
        (x, y): an int when it is an integer, else None.  The points are
        decoded on the first call and each column is kept, so every setup
        swept over this grid shares them."""
        column = self._columns.get(form)
        if column is None:
            column = self._columns[form] = form_column(self._decoded, form)
        return column

    def form_cells(self, forms: tuple[tuple[int, int], ...]) -> FormCells:
        """(cell of every point, exact values of every cell, criterion
        values of every cell) over ``forms``: a cell is a distinct pair of a
        point's ``form_column`` values and its ``criterion_values`` triple,
        and cells are numbered in order of first occurrence.  Built from the
        kept columns on the first call per ``forms`` and kept, so the setups
        sharing a form set share one numbering.  It holds exact values only,
        never a GK value or a verdict."""
        cells = self._cells.get(forms)
        if cells is None:
            columns = list(map(self.form_column, forms))

            def joint():  # streamed, so no pair per point outlives its lookup
                return zip(zip(*columns), self._criterion_values)

            numbering = dict(zip(dict.fromkeys(joint()), count()))
            index = tuple(map(numbering.__getitem__, joint()))
            exact, triples = zip(*numbering) if numbering else ((), ())
            cells = self._cells[forms] = (index, exact, triples)
        return cells

    def criterion_values(self) -> tuple[CriterionValues, ...]:
        """(z1, z2, z1 + z2) at every point, in grid order, each an int when
        it is an integer, else None (``verdict.criterion_values``).  Read
        off the scalars themselves, not the decoded points, on the first
        call, and kept for every setup swept over this grid."""
        return self._criterion_values

    @cached_property
    def _criterion_values(self) -> tuple[CriterionValues, ...]:
        return tuple(criterion_values(self._points))

    @cached_property
    def _decoded(self) -> tuple[DecodedPoint, ...]:
        return tuple([decode_point(z1, z2) for z1, z2 in self._points])

    @cached_property
    def _columns(self) -> dict[tuple[int, int], tuple[int | None, ...]]:
        return {}

    @cached_property
    def _cells(self) -> dict[tuple[tuple[int, int], ...], FormCells]:
        return {}


def grid_from_spec(spec: GridSpec) -> ParameterGrid:
    """Cartesian grid over one axis list, plus coupled symbol offsets."""
    rationals = [ExactScalar(v) for v in spec.rationals()]
    axis = rationals + [ExactScalar(v) for v in EXTRA_RATIONALS]
    axis.extend(symbol(name) for name in SYMBOLS)
    tau = symbol(SYMBOLS[0])
    plus = [a + tau for a in rationals]
    minus = [b - tau for b in rationals]
    extra = [(a, b) for a in plus for b in minus]
    extra.extend((a, a) for a in plus)
    values = tuple(axis)
    return ParameterGrid(z1_values=values, z2_values=values, extra_points=tuple(extra))


def _standard_spec(n: int) -> GridSpec:
    return GridSpec(lo=Fraction(-(n + 2)), hi=Fraction(3))


@lru_cache(maxsize=1)
def _rank_grid(n: int) -> ParameterGrid:
    return grid_from_spec(_standard_spec(n))


def standard_grid(setup: ParabolicSetup) -> ParameterGrid:
    """Rational range [-(n+2), 3] step 1/2 with the generic augmentations.

    Every boundary reducible point of the criteria lies within
    [-(n+2), 0], so both sides of each boundary are sampled.  Setups of
    the rank asked last share one grid (``family_setups`` groups ranks).
    """
    return _rank_grid(setup.n)


class SweepRow(NamedTuple):
    z1: ExactScalar
    z2: ExactScalar
    verdict: Verdict


# a SweepRow from a (z1, z2, verdict) tuple, without a Python-level call
_new_row = partial(tuple.__new__, SweepRow)


class SweepReport(NamedTuple):
    setup: ParabolicSetup
    rows: list[SweepRow]
    errors: list[tuple[str, str, str]]

    @property
    def summary(self) -> dict:
        reducible = sum(1 for r in self.rows if r.verdict.reducible)
        mismatches = sum(1 for r in self.rows if r.verdict.agree is False)
        return {
            "points": len(self.rows) + len(self.errors),
            "reducible": reducible,
            "irreducible": len(self.rows) - reducible,
            "mismatches": mismatches,
            "errors": len(self.errors),
        }


def sweep(setup: ParabolicSetup, grid: ParameterGrid) -> SweepReport:
    """Evaluate oracle and criterion at every grid point, in grid order.

    The column passes come first: the grid's cells for the setup's forms
    (``ParameterGrid.form_cells``), each cell's exact values clamped at the
    windows into its memo key, and ``verdict.criterion_column`` over the
    cells' criterion values.  Then one pass over the cells fills the GK
    memo, from clamped key to GK dimension, which lives for this one
    sweep: a cell whose key is new calls ``gk._gk_from_values`` on its
    exact values.  Each cell gets one outcome: the ``Verdict`` shared by
    every cell with its GK dimension and criterion, or None, with the repr
    of what raised in ``failed``.  A miss that raises is not memoised:
    every point of its cell is recorded in ``errors``, and the next cell
    with the same key misses again.  A column pass that raises fails
    every point with its repr.  The rows and the errors are built in one
    pass over the points' cells.
    """
    try:
        forms, windows, _, _ = setup.gk_key
        du = setup.dim_u
        cells, exact, triples = grid.form_cells(forms)
        keys = list(zip(*map(saturate, zip(*exact), windows)))
        criteria = verdict.criterion_column(setup, triples)
    except Exception as exc:  # collected, not fatal
        cells, outcomes, failed = (0,) * len(grid), [None], {0: repr(exc)}
    else:
        memo: dict = {}  # clamped form values -> GK dimension
        failed = {}  # cell -> the repr of what its miss raised
        for cell, (key, values) in enumerate(zip(keys, exact)):
            if key not in memo:
                try:
                    memo[key] = gk._gk_from_values(setup, values)
                except Exception as exc:  # collected, not fatal
                    failed[cell] = repr(exc)
        pairs = list(zip(map(memo.get, keys), criteria))
        shared = {  # cells with equal GK dimension and criterion share one Verdict
            (dim, crit): Verdict(dim, du, dim < du, crit, (dim < du) == crit)
            for dim, crit in set(pairs)
            if dim is not None
        }
        outcomes = list(map(shared.get, pairs))  # per cell: its Verdict, or None
        for cell in failed:
            outcomes[cell] = None
    z1s, z2s = grid.point_columns()
    verdicts = list(map(outcomes.__getitem__, cells))  # per point: a Verdict, or None
    rows = list(compress(map(_new_row, zip(z1s, z2s, verdicts)), verdicts))
    errors = compress(count(), map(not_, verdicts))
    return SweepReport(setup, rows, [(str(z1s[i]), str(z2s[i]), failed[cells[i]]) for i in errors])


class MismatchReport(NamedTuple):
    """Outcome of a family verification.

    ``errors`` holds (setup, z1, z2, exception) for each point whose
    evaluation raised; ``grid_points`` counts every point of the swept
    grids, so a run that skipped or lost points cannot pass.
    """

    mismatches: list[tuple[ParabolicSetup, SweepRow]]
    setups_checked: int
    points_checked: int
    errors: list[tuple[ParabolicSetup, str, str, str]]
    grid_points: int

    @property
    def ok(self) -> bool:
        return (
            self.setups_checked > 0
            and not self.mismatches
            and not self.errors
            and self.points_checked == self.grid_points
        )


def family_setups(kind: str, n_max: int) -> list[ParabolicSetup]:
    """All two-step non-maximal setups of the given kind up to rank n_max."""
    setups = []
    if kind == "A":
        for n in range(FAMILY_MIN_N["A"], n_max + 1):
            lie = LieType("A", n)
            for p in range(1, n - 1):
                for q in range(p + 1, n):
                    setups.append(ParabolicSetup(lie, p, q))
    elif kind == "D":
        for n in range(FAMILY_MIN_N["D"], n_max + 1):
            lie = LieType("D", n)
            for p, q in ((1, n - 1), (1, n), (n - 1, n)):
                setups.append(ParabolicSetup(lie, p, q))
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return setups


def family_point_bound(kind: str, n_max: int) -> int:
    """Standard-grid points, before de-duplication, of the family up to
    rank n_max.  The sum stops at the first rank that takes it past
    ``MAX_FAMILY_POINTS``, so the loop is bounded by the cap, not by n_max.
    """
    if kind not in FAMILY_MIN_N:
        raise ValueError(f"unknown family kind {kind!r}")
    total, n = 0, FAMILY_MIN_N[kind]
    while n <= n_max and total <= MAX_FAMILY_POINTS:
        setups = (n - 1) * (n - 2) // 2 if kind == "A" else 3
        total += setups * _standard_spec(n).point_bound
        n += 1
    return total


def verify_family(kind: str, n_max: int) -> MismatchReport:
    """Sweep every setup of the family and collect criterion/oracle clashes.

    A family whose grids would hold more than ``MAX_FAMILY_POINTS`` points
    is rejected with a ValueError before any setup is built.
    """
    if family_point_bound(kind, n_max) > MAX_FAMILY_POINTS:
        raise ValueError(
            f"type {kind} up to rank {n_max} would sweep more than "
            f"{MAX_FAMILY_POINTS} grid points"
        )
    setups = family_setups(kind, n_max)
    mismatches, errors = [], []
    points = grid_points = 0
    for setup in setups:
        grid = standard_grid(setup)
        swept = sweep(setup, grid)
        grid_points += len(grid)
        points += len(swept.rows)
        errors.extend((setup, *error) for error in swept.errors)
        mismatches.extend((setup, row) for row in swept.rows if not row.verdict.agree)
    return MismatchReport(mismatches, len(setups), points, errors, grid_points)


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "type,n,p,q,z1,z2,gk,dim_u,reducible,criterion,agree"


def format_field(value) -> str:
    """One field of a row as CSV and the CLI print it: booleans are
    lowercase, everything else goes through str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def row_record(setup: ParabolicSetup, row: SweepRow) -> dict:
    v = row.verdict
    return {
        "type": setup.lie.kind,
        "n": setup.lie.n,
        "p": setup.p,
        "q": setup.q,
        "z1": str(row.z1),
        "z2": str(row.z2),
        "gk": v.gk,
        "dim_u": v.dim_u,
        "reducible": v.reducible,
        "criterion": v.criterion,
        "agree": v.agree,
    }


def report_to_csv(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for row in report.rows:
        record = row_record(report.setup, row)
        lines.append(",".join(map(format_field, record.values())))
    return "\n".join(lines) + "\n"


def report_to_json(report: SweepReport) -> str:
    import json  # only JSON output loads it

    payload = {
        "setup": {
            "type": report.setup.lie.kind,
            "n": report.setup.lie.n,
            "p": report.setup.p,
            "q": report.setup.q,
            "dim_u": report.setup.dim_u,
        },
        "rows": [row_record(report.setup, row) for row in report.rows],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# diagrams

UNIT = 40  # SVG user units per lattice unit
MARGIN = 60


def _full_lines(report: SweepReport, line, other) -> list[Fraction]:
    """Rational values c, ascending, with every sampled point on the line
    ``line(row) == c`` reducible and one of them at a generic ``other(row)``;
    both functions give a Fraction, or None when the value has a symbol
    part."""
    groups: dict[Fraction, list[SweepRow]] = {}
    for row in report.rows:
        value = line(row)
        if value is not None:
            groups.setdefault(value, []).append(row)
    return [
        c
        for c, rows in sorted(groups.items())
        if any(other(r) is None for r in rows) and all(r.verdict.reducible for r in rows)
    ]


def _rational(z: ExactScalar) -> Fraction | None:
    return None if z.tau or z.sigma else z.rational


def _detect_lines(report: SweepReport):
    """Fully reducible loci in the sweep data.

    A vertical (resp. horizontal) line needs every sampled point of the
    column (resp. row) reducible, including a generic-offset sample, so it
    genuinely stands for "the other parameter is arbitrary".  Anti-diagonal
    lines are read off the coupled symbol points the same way; z1 + z2 is
    read off the scalars' fields, the rational parts added when the symbol
    parts cancel, so no scalar is built.
    """
    z1, z2 = (lambda row: _rational(row.z1)), (lambda row: _rational(row.z2))

    def total(row):
        a, b = row.z1, row.z2
        return a.rational + b.rational if a.tau == -b.tau and a.sigma == -b.sigma else None

    return _full_lines(report, z1, z2), _full_lines(report, z2, z1), _full_lines(report, total, z1)


def render_diagram(report: SweepReport, format: str = "svg") -> str:
    """Lattice picture of the reducible locus (z1 horizontal, z2 vertical).

    Rational reducible points become filled marks; loci that are reducible
    for an arbitrary value of one parameter become lines.  Generic-offset
    findings enter the legend rather than the plot.
    """
    if format not in ("svg", "ascii"):
        raise UnsupportedGrid(f"unknown diagram format {format!r}")
    rational = [r for r in report.rows if r.z1.is_rational and r.z2.is_rational]
    xs = sorted({r.z1.rational for r in rational})
    ys = sorted({r.z2.rational for r in rational})
    if not rational or len(xs) * len(ys) != len(rational):  # an empty report too
        raise UnsupportedGrid("rational points do not form a cartesian grid")
    verticals, horizontals, antidiagonals = _detect_lines(report)
    generic_rows = [r for r in report.rows if not (r.z1.is_rational and r.z2.is_rational)]
    generic_reducible = sum(1 for r in generic_rows if r.verdict.reducible)
    legend = [
        f"setup: type {report.setup.lie.kind}, n={report.setup.n}, "
        f"p={report.setup.p}, q={report.setup.q}, dim_u={report.setup.dim_u}",
        f"generic-offset points: {generic_reducible} reducible / "
        f"{len(generic_rows) - generic_reducible} irreducible",
        f"lines: z1 in {{{', '.join(map(str, verticals))}}}; "
        f"z2 in {{{', '.join(map(str, horizontals))}}}; "
        f"z1+z2 in {{{', '.join(map(str, antidiagonals))}}}",
    ]
    if format == "ascii":
        return _render_ascii(rational, xs, ys, legend)
    return _render_svg(rational, xs, ys, verticals, horizontals, antidiagonals, legend)


def _render_ascii(rational, xs, ys, legend) -> str:
    marks = {(r.z1.rational, r.z2.rational): r.verdict.reducible for r in rational}
    lines = []
    for y in reversed(ys):
        row = "".join("R" if marks.get((x, y)) else "·" for x in xs)
        lines.append(f"{str(y):>6} {row}")
    lines.append(f"{'':>6} z1: {xs[0]} .. {xs[-1]}")
    lines.extend(legend)
    return "\n".join(lines) + "\n"


def _render_svg(rational, xs, ys, verticals, horizontals, antidiagonals, legend) -> str:
    lo_x, hi_x = xs[0], xs[-1]
    lo_y, hi_y = ys[0], ys[-1]

    def px(x: Fraction) -> float:
        return float(MARGIN + (x - lo_x) * UNIT)

    def py(y: Fraction) -> float:
        return float(MARGIN + (hi_y - y) * UNIT)

    width = px(hi_x) + MARGIN
    height = py(lo_y) + MARGIN + 20 * (len(legend) + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{px(lo_x):g}" y1="{py(Fraction(0)):g}" x2="{px(hi_x):g}" '
        f'y2="{py(Fraction(0)):g}" stroke="lightgray"/>'
        if lo_y <= 0 <= hi_y
        else "",
        f'<line x1="{px(Fraction(0)):g}" y1="{py(lo_y):g}" x2="{px(Fraction(0)):g}" '
        f'y2="{py(hi_y):g}" stroke="lightgray"/>'
        if lo_x <= 0 <= hi_x
        else "",
    ]
    for a in verticals:
        parts.append(
            f'<line x1="{px(a):g}" y1="{py(hi_y):g}" x2="{px(a):g}" '
            f'y2="{py(lo_y):g}" stroke="black" stroke-width="2"/>'
        )
    for b in horizontals:
        parts.append(
            f'<line x1="{px(lo_x):g}" y1="{py(b):g}" x2="{px(hi_x):g}" '
            f'y2="{py(b):g}" stroke="black" stroke-width="2"/>'
        )
    for s in antidiagonals:
        # clip z1 + z2 = s to the bounding box
        x_start = max(lo_x, s - hi_y)
        x_end = min(hi_x, s - lo_y)
        if x_start <= x_end:
            parts.append(
                f'<line x1="{px(x_start):g}" y1="{py(s - x_start):g}" '
                f'x2="{px(x_end):g}" y2="{py(s - x_end):g}" '
                f'stroke="black" stroke-width="1"/>'
            )
    for r in rational:
        if r.verdict.reducible:
            parts.append(
                f'<circle cx="{px(r.z1.rational):g}" cy="{py(r.z2.rational):g}" '
                f'r="4" fill="black"/>'
            )
    y_text = py(lo_y) + MARGIN / 2
    for i, line in enumerate(legend):
        parts.append(
            f'<text x="{MARGIN}" y="{y_text + 20 * i:g}" font-size="12">{line}</text>'
        )
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"
