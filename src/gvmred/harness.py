"""Parameter grids, bulk sweeps, criterion-vs-oracle verification, diagrams.

A standard grid walks both parameters over a half-step rational range that
extends past every reducibility boundary, adds a non-half-integral rational
and the generic symbols tau and sigma on each axis, and couples symbol
offsets (a+tau, b-tau) so the "integral sum, non-integral parts" branches
are exercised.  Sweeps are deterministic: rows are emitted in grid order.

A sweep decides each coarse cell once.  A cell is a distinct tuple of a
point's exact form values over a set of forms, and a coarse cell a
distinct tuple of a cell's values clamped at the setup's windows
(``ParabolicSetup.gk_key``): each coarse cell is one memo key.  The grid
keeps, for every setup swept over it, each built on first use: the exact
form values per form (``ParameterGrid.form_column``), the exact cells
once per form set, one cell table per form set and setup windows, which
``ParameterGrid.form_cells``' docstring describes and which holds every
per-grid input of a sweep, and the points transposed.  Summed over the
setups, the cells are 16% of the standard grids' points in type A up to
rank 5 (1 527 of 9 516) and 26% in type D up to rank 6 (2 466 of 9 381),
and the coarse cells 24% and 43% of the cells (374 and 1 052).

``decide_cells`` is the one decision core, and its docstring describes
the stages of a sweep: the column passes, the one miss loop and the
error semantics.  It returns each point's cell, each cell's size and
outcome, and the failed cells.  ``sweep`` runs it and builds every
point's row from its cell's outcome (``_report``); ``verify_family``
runs it alone, counts the checked points off the cells' sizes, and
builds rows through ``_report`` only for a setup with a failed or
disagreeing cell.  The grid keeps exact and clamped values but no GK
value or verdict, and the memo lives for one call of the core.  The
one-point route, ``verdict.evaluate``, serves ``gvmred reduce``.

Output spells each layout once.  ``ROW_FIELDS`` is the one row layout,
for the CSV header, the JSON records and the CLI's ``key=value`` lines.
A diagram reads the rows in one pass (``_picture``) for the rational
marks, the generic-offset counts and the three line families, keyed by
tuples of ints, so no ``Fraction`` is hashed or added per row; the ASCII
grid and the SVG draw from the marks, and the SVG writes every axis and
line through one segment template.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, repeat
from math import gcd
from operator import attrgetter, is_, itemgetter
from typing import NamedTuple

from . import gk, verdict
from .exact import SYMBOLS, DecodedPoint, ExactScalar, decode_point, form_column, saturate, symbol
from .rootdata import FrozenRecord, LieType, ParabolicSetup, two_step_pairs
from .verdict import Verdict

# Unused here; kept importable from this module, where perfbench/tracing.py
# wraps it.
from .verdict import evaluate  # noqa: F401


class UnsupportedGrid(ValueError):
    """The report's grid cannot be drawn as a lattice diagram."""


Point = tuple[ExactScalar, ExactScalar]
Axis = tuple[ExactScalar, ...]
Values = tuple["int | None", ...]
Ints = tuple[int, ...]
Windows = tuple[tuple[int, int], ...]
# (coarse, firsts): ``ParameterGrid.form_cells``' coarsening
Coarsening = tuple[Ints, Ints]
# (cells, exact, numbers, patterns, coarsening, sizes): ``ParameterGrid.form_cells``
FormCells = tuple[Ints, tuple[Values, ...], Ints, tuple[Values, ...], Coarsening, Ints]

EXTRA_RATIONALS = (Fraction(1, 3),)
# Largest grid a spec may describe: about 100 times the standard grid of
# rank 9 (1 893 points).
MAX_GRID_POINTS = 200_000
# Smallest rank with a two-step non-maximal parabolic, per family.
FAMILY_MIN_N = {"A": 3, "D": 4}
# Largest family a verification may sweep, in standard-grid points before
# de-duplication.  The largest families under it, A up to rank 14 (923 650
# points) and D up to rank 43 (985 080), took 0.29-0.42 s (median 0.30 s)
# and 1.17-1.44 s (median 1.26 s) with `gvmred verify` (5 runs each by
# tests/measure.py, 2 CPUs of an Intel Xeon, Python 3.11.7, interpreter
# start included); per-point cost grows with the rank, faster in type D.
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
        # caches kept out of ``_fields``, so equality and hash ignore them
        self.__dict__.update(_columns={}, _cells={}, _tables={})

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

    @cached_property
    def _point_columns(self) -> tuple[Axis, Axis]:
        # (z1 of every point, z2 of every point), in grid order
        return tuple(zip(*self._points)) or ((), ())

    def form_column(self, form: tuple[int, int]) -> Values:
        """(x*z1 + y*z2)/2 at every point, in grid order, for ``form`` =
        (x, y): an int when it is an integer, else None.  The points are
        decoded on the first call and each column is kept, so every setup
        swept over this grid shares them."""
        column = self._columns.get(form)
        if column is None:
            column = self._columns[form] = form_column(self._decoded, form)
        return column

    def form_cells(
        self, forms: tuple[tuple[int, int], ...], windows: Windows | None = None
    ) -> FormCells:
        """The cell table over ``forms``, coarsened at ``windows``, every
        per-grid input of a sweep, as one tuple
        ``(cells, exact, numbers, patterns, coarsening, sizes)``:

        * ``cells``: the cell of every point, in grid order.  A cell is a
          distinct tuple of a point's ``form_column`` values;
        * ``exact``: every cell's exact values;
        * ``numbers``: every cell's None-pattern number, a pattern being a
          cell's values with every int made 0;
        * ``patterns``: the None pattern of every number;
        * ``coarsening``: ``(coarse, firsts)`` (``_coarsen``).  A coarse
          cell is a distinct tuple of a cell's values with each int clamped
          at its form's window, numbered in order of first occurrence;
          ``coarse`` holds every cell's coarse cell and ``firsts`` every
          coarse cell's first cell.  At a setup's windows
          (``ParabolicSetup.gk_key``) the coarse cells are the setup's memo
          keys.  ``windows`` None clamps nothing: every cell is its own
          coarse cell;
        * ``sizes``: every cell's number of points, counted in the pass
          that numbers the cells.

        Cells and patterns are numbered in order of first occurrence.  The
        exact part is built from the kept columns on the first call per
        ``forms`` and kept, so the setups sharing a form set (every type-A
        setup of one rank; each type-D rank has two) hash the points once
        between them; the coarsening is built from the exact values on the
        first call per ``forms`` and ``windows``, and the table is kept
        and returned by every later call.  Every pass over the points or
        the cells runs in C (``map``, ``zip``, ``dict``, ``Counter`` and
        ``itemgetter``).  It holds exact and clamped values only, never a
        GK value or a verdict."""
        table = self._tables.get((forms, windows))
        if table is None:
            exact = self._cells.get(forms)
            if exact is None:
                exact = self._cells[forms] = self._exact_cells(forms)
            cells, values, numbers, patterns, sizes = exact
            coarsening = _coarsen(values, windows)
            table = self._tables[forms, windows] = (
                cells, values, numbers, patterns, coarsening, sizes
            )
        return table

    def _exact_cells(self, forms: tuple[tuple[int, int], ...]) -> tuple:
        """``form_cells``' exact part: (cells, exact, numbers, patterns,
        sizes)."""
        columns = list(map(self.form_column, forms))
        first: dict = {}  # a cell's exact values -> its first point
        # per point, its cell's first point: one pass hashes the points
        firsts = list(map(first.setdefault, zip(*columns), count()))
        # every cell's number of points, keyed by its first point, in order
        sizes = Counter(firsts)
        # per form, every cell's value, read at the cell's first point
        cell_firsts = tuple(sizes)
        columns = [_gather(column, cell_firsts) for column in columns]
        # per cell, which of its values are None
        nones = list(zip(*[map(is_, column, repeat(None)) for column in columns]))
        patterns = dict(zip(dict.fromkeys(nones), count()))
        return (
            _gather(dict(zip(sizes, count())), firsts),
            tuple(first),
            _gather(patterns, nones),
            tuple(tuple([None if none else 0 for none in flags]) for flags in patterns),
            tuple(sizes.values()),
        )

    @cached_property
    def _decoded(self) -> tuple[DecodedPoint, ...]:
        return tuple([decode_point(z1, z2) for z1, z2 in self._points])


def _coarsen(exact: tuple[Values, ...], windows: Windows | None) -> Coarsening:
    """(coarse, firsts) of the cells whose exact values are ``exact``:
    every cell's coarse cell, its values with each int clamped at its
    form's window, numbered in order of first occurrence, and every coarse
    cell's first cell.  Only each form's distinct ints are clamped
    (``saturate``); the clamped tuples, their first cells and numbers are
    built in C.  ``windows`` None clamps nothing."""
    if windows is None:
        cells = tuple(range(len(exact)))
        return cells, cells
    clamped = []
    for column, window in zip(zip(*exact), windows):
        ints = tuple(set(column).difference((None,)))
        clamp = dict(zip(ints, saturate(ints, window)))
        clamp[None] = None
        clamped.append(map(clamp.__getitem__, column))
    cells = list(zip(*clamped))  # every cell's clamped values
    first: dict = {}  # a coarse cell's values -> its first cell
    deque(map(first.setdefault, cells, count()), maxlen=0)
    return _gather(dict(zip(first, count())), cells), tuple(first.values())


def _gather(values, indices) -> tuple:
    """``values[i]`` for every i of ``indices``, in order, as one tuple:
    one ``itemgetter`` call, which reads a tuple, a list or a dict in C.
    An ``itemgetter`` of one index gives the item alone, and one of none
    cannot be built, so those two go through ``map``."""
    if len(indices) > 1:
        return itemgetter(*indices)(values)
    return tuple(map(values.__getitem__, indices))


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


class SweepRow(tuple):
    """A point (z1, z2) and its ``Verdict``, built from one tuple:
    ``SweepRow((z1, z2, verdict))`` runs tuple's own constructor, so a
    sweep builds its rows with no Python-level call."""

    __slots__ = ()
    _fields = ("z1", "z2", "verdict")
    z1 = property(itemgetter(0))
    z2 = property(itemgetter(1))
    verdict = property(itemgetter(2))

    def __repr__(self) -> str:
        return "SweepRow(z1={!r}, z2={!r}, verdict={!r})".format(*self)


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


def decide_cells(setup: ParabolicSetup, grid: ParameterGrid) -> tuple:
    """Decide every cell of ``grid`` for ``setup``: the one decision core,
    run by ``sweep`` and by ``verify_family``.  Returns the cell of every
    point, the number of points of every cell, every cell's ``Verdict``
    (None when it failed) and, per failed cell, the repr of what raised.

    Its stages, which the other modules name here:

    1. The column passes: the grid's cell table for the setup's forms,
       coarsened at the setup's windows (``ParameterGrid.form_cells`` at
       ``ParabolicSetup.gk_key``), the one value this core reads off the
       grid besides ``len(grid)``.  Each coarse cell is one memo key: its
       cells' values agree once clamped at the setup's windows.
    2. The miss loop.  The memo, every coarse cell's ``Verdict``, lives
       for this one call.  Each coarse cell, in order of first occurrence,
       misses once, at its first cell: the class plan of the cell's None
       pattern, looked up by ``gk.plan_of`` on the pattern's first miss,
       ``gk._gk_from_plan`` on it and the cell's exact values, and
       ``verdict.on_half_line`` on the same exact values (the windows keep
       lo < b <= hi, so exact and clamped values give one answer).  A miss
       reads exact values, not clamped ones, since the key comparisons
       read differences of its runs' values.  Every miss of equal GK
       dimension and criterion shares one ``Verdict``, built by
       ``Verdict.of`` on the first of them.
    3. Every cell's outcome is its coarse cell's, read in one
       ``itemgetter`` gather (``_gather``).

    A miss that raises, in the plan lookup too, is not memoised: its
    cell's outcome is None, its cell is failed with the repr of what
    raised, and the coarse cell's next cell, if any, misses again, looking
    its plan up again if the lookup raised.  A column pass that raises
    fails every point: they all get cell 0, failed with its repr.  No GK
    value or verdict is kept on the grid.
    """
    try:
        (forms, windows, _, _, _), du = setup.gk_key, setup.dim_u
        table = grid.form_cells(forms, windows)
        cells, exact, numbers, patterns, (coarse, firsts), sizes = table
    except Exception as exc:  # collected, not fatal
        return (0,) * len(grid), (len(grid),), [None], {0: repr(exc)}
    memo = [None] * len(firsts)  # per coarse cell: its Verdict, None until a miss succeeds
    shared: dict = {}  # (GK dimension, criterion) -> the Verdict of every such miss
    plans = [None] * len(patterns)  # per pattern: the setup's class plan, once looked up
    failed = {}  # cell -> the repr of what its miss raised
    todo = list(firsts)  # each coarse cell's first cell, then the next cell of a raising one
    for cell in todo:
        values, number = exact[cell], numbers[cell]
        try:
            plan = plans[number]
            if plan is None:
                plan = plans[number] = gk.plan_of(setup, patterns[number])
            dim = gk._gk_from_plan(plan, values)
            crit = verdict.on_half_line(setup, values)
        except Exception as exc:  # collected, not fatal
            failed[cell] = repr(exc)
            try:  # the coarse cell's next cell asks again
                todo.append(coarse.index(coarse[cell], cell + 1))
            except ValueError:  # the coarse cell has no later cell
                pass
        else:
            outcome = shared.get((dim, crit))
            if outcome is None:
                outcome = shared[dim, crit] = Verdict.of(dim, du, crit)
            memo[coarse[cell]] = outcome
    outcomes = _gather(memo, coarse)
    if failed:
        outcomes = list(outcomes)
        for cell in failed:
            outcomes[cell] = None
    return cells, sizes, outcomes, failed


def _report(setup: ParabolicSetup, grid: ParameterGrid, cells, outcomes, failed) -> SweepReport:
    """The rows of ``decide_cells``' outcomes: every point's row from its
    cell's outcome, read in one ``itemgetter`` gather (``_gather``) and
    built through tuple's own constructor in one ``map``; only when some
    cell failed are those points' rows dropped and the points listed in
    ``errors``, in grid order."""
    z1s, z2s = grid._point_columns
    rows = list(map(SweepRow, zip(z1s, z2s, _gather(outcomes, cells))))
    if not failed:
        return SweepReport(setup, rows, [])
    errors = [(str(z1s[i]), str(z2s[i]), failed[c]) for i, c in enumerate(cells) if c in failed]
    return SweepReport(setup, [row for row in rows if row.verdict is not None], errors)


def sweep(setup: ParabolicSetup, grid: ParameterGrid) -> SweepReport:
    """Evaluate oracle and criterion at every grid point, in grid order:
    ``decide_cells``, then every point's row from its cell's outcome."""
    cells, _, outcomes, failed = decide_cells(setup, grid)
    return _report(setup, grid, cells, outcomes, failed)


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
    """All two-step non-maximal setups of the given kind up to rank n_max,
    rank by rank, each rank's in the order of ``rootdata.two_step_pairs``."""
    if kind not in FAMILY_MIN_N:
        raise ValueError(f"unknown family kind {kind!r}")
    setups = []
    for n in range(FAMILY_MIN_N[kind], n_max + 1):
        lie = LieType(kind, n)
        setups += [ParabolicSetup(lie, p, q) for p, q in two_step_pairs(lie)]
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
        total += len(two_step_pairs(LieType(kind, n))) * _standard_spec(n).point_bound
        n += 1
    return total


def verify_family(kind: str, n_max: int) -> MismatchReport:
    """Decide every setup of the family over its standard grid
    (``decide_cells``) and collect criterion/oracle clashes.

    ``points_checked`` sums the sizes of the cells that did not fail and
    ``grid_points`` the grids' lengths, so a cell table that loses a point
    cannot pass.  Rows are built (``_report``) only for a setup with a
    failed or disagreeing cell; its disagreeing rows and its errors are
    kept, in grid order.  A family whose grids would hold more than
    ``MAX_FAMILY_POINTS`` points is rejected with a ValueError before any
    setup is built.
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
        cells, sizes, outcomes, failed = decide_cells(setup, grid)
        grid_points += len(grid)
        points += sum(sizes) - sum(map(sizes.__getitem__, failed))
        # a failed cell's outcome is None
        if failed or not all(map(attrgetter("agree"), filter(None, outcomes))):
            swept = _report(setup, grid, cells, outcomes, failed)
            errors.extend((setup, *error) for error in swept.errors)
            mismatches.extend((setup, row) for row in swept.rows if not row.verdict.agree)
    return MismatchReport(mismatches, len(setups), points, errors, grid_points)


# ---------------------------------------------------------------------------
# serialization

# The one row layout: the CSV header, the JSON record keys and the CLI's
# key=value lines.
ROW_FIELDS = ("type", "n", "p", "q", "z1", "z2", *Verdict._fields)
CSV_HEADER = ",".join(ROW_FIELDS)


def format_field(value) -> str:
    """One field of a row as CSV and the CLI print it: booleans are
    lowercase, everything else goes through str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _row_values(setup: ParabolicSetup, row: SweepRow) -> tuple:
    """A row's fields in ``ROW_FIELDS`` order, the scalars as strings."""
    lie = setup.lie
    return (lie.kind, lie.n, setup.p, setup.q, str(row.z1), str(row.z2), *row.verdict)


def row_record(setup: ParabolicSetup, row: SweepRow) -> dict:
    """A row as a dict keyed by ``ROW_FIELDS``: a JSON row, and what
    ``gvmred reduce`` and the mismatch lines of ``gvmred verify`` print.
    CSV formats the same values without building the dict."""
    return dict(zip(ROW_FIELDS, _row_values(setup, row)))


def report_to_csv(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(",".join(map(format_field, _row_values(report.setup, row))))
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


def _scalar_keys(z: ExactScalar):
    """(z's value as (num, den) when it is rational, else None; its symbol
    part as the ints (tau num, tau den, sigma num, sigma den); the
    negation of that)."""
    tau, sigma = z.tau, z.sigma
    num, den = tau.numerator, tau.denominator
    s_num, s_den = sigma.numerator, sigma.denominator
    rational = None if tau or sigma else (z.num, z.den)
    return rational, (num, den, s_num, s_den), (-num, den, -s_num, s_den)


def _picture(report: SweepReport):
    """What a diagram draws, read off the rows in one pass.

    Returns the rational marks ``{(x, y): reducible}`` in row order, each
    coordinate keyed by its (numerator, denominator), the (irreducible,
    reducible) counts of the points with a symbol part, and the lines
    (z1 = c, z2 = c, z1 + z2 = c), each an ascending list of Fractions.  A
    line needs every sampled point on it reducible, one of them at a
    generic other parameter (z2, z1 and z1 respectively), so it genuinely
    stands for "the other parameter is arbitrary".  Every key is a tuple
    of ints: each distinct scalar's keys are read once (``_scalar_keys``),
    and z1 + z2, when the symbol parts cancel, is the rational parts added
    over ints and reduced, so no Fraction is hashed or added per row.
    """
    marks, generic = {}, [0, 0]
    families = ({}, {}, {})  # per line value: [every point reducible, some generic other]
    keys = {}  # scalar -> its _scalar_keys
    for z1, z2, verdict in report.rows:
        reducible = verdict.reducible
        x, symbols, _ = keys.get(z1) or keys.setdefault(z1, _scalar_keys(z1))
        y, _, negated = keys.get(z2) or keys.setdefault(z2, _scalar_keys(z2))
        if x is None or y is None:
            generic[reducible] += 1
        else:
            marks[x, y] = reducible
        total = None
        if symbols == negated:  # z1 + z2 is rational
            num, den = z1.num * z2.den + z2.num * z1.den, z1.den * z2.den
            g = gcd(num, den)
            total = num // g, den // g
        for family, value, other in zip(families, (x, y, total), (y, x, x)):
            if value is not None:
                facts = family.setdefault(value, [True, False])
                facts[0] &= reducible
                facts[1] |= other is None
    lines = tuple(
        sorted(Fraction(*c) for c, (every, some) in f.items() if every and some) for f in families
    )
    return marks, generic, lines


def render_diagram(report: SweepReport, format: str = "svg") -> str:
    """Lattice picture of the reducible locus (z1 horizontal, z2 vertical).

    Rational reducible points become filled marks; loci that are reducible
    for an arbitrary value of one parameter become lines.  Generic-offset
    findings enter the legend rather than the plot.  One pass over the rows
    (``_picture``) gives all three; each call reads the rows again.  Each
    axis lists its distinct marked values as (Fraction, key), ascending.
    """
    if format not in ("svg", "ascii"):
        raise UnsupportedGrid(f"unknown diagram format {format!r}")
    marks, (irreducible, reducible), lines = _picture(report)
    xs = sorted((Fraction(*x), x) for x in {x for x, _ in marks})
    ys = sorted((Fraction(*y), y) for y in {y for _, y in marks})
    if not marks or len(xs) * len(ys) != len(marks):  # an empty report too
        raise UnsupportedGrid("rational points do not form a cartesian grid")
    setup = report.setup
    sets = ["{" + ", ".join(map(str, line)) + "}" for line in lines]
    legend = [
        f"setup: type {setup.lie.kind}, n={setup.n}, "
        f"p={setup.p}, q={setup.q}, dim_u={setup.dim_u}",
        f"generic-offset points: {reducible} reducible / {irreducible} irreducible",
        "lines: z1 in {}; z2 in {}; z1+z2 in {}".format(*sets),
    ]
    if format == "ascii":
        return _render_ascii(marks, xs, ys, legend)
    return _render_svg(marks, xs, ys, lines, legend)


def _render_ascii(marks, xs, ys, legend) -> str:
    lines = []
    for y, y_key in reversed(ys):
        row = "".join("R" if marks[x_key, y_key] else "·" for _, x_key in xs)
        lines.append(f"{str(y):>6} {row}")
    lines.append(f"{'':>6} z1: {xs[0][0]} .. {xs[-1][0]}")
    lines.extend(legend)
    return "\n".join(lines) + "\n"


def _render_svg(marks, xs, ys, lines, legend) -> str:
    (lo_x, _), (hi_x, _) = xs[0], xs[-1]
    (lo_y, _), (hi_y, _) = ys[0], ys[-1]

    def px(x: Fraction) -> float:
        return float(MARGIN + (x - lo_x) * UNIT)

    def py(y: Fraction) -> float:
        return float(MARGIN + (hi_y - y) * UNIT)

    width = px(hi_x) + MARGIN
    height = py(lo_y) + MARGIN + 20 * (len(legend) + 1)
    axis, bold = 'stroke="lightgray"', 'stroke="black" stroke-width="2"'
    thin = 'stroke="black" stroke-width="1"'
    verticals, horizontals, antidiagonals = lines
    segments = []  # (x1, y1, x2, y2, style) in lattice units
    if lo_y <= 0 <= hi_y:
        segments.append((lo_x, 0, hi_x, 0, axis))
    if lo_x <= 0 <= hi_x:
        segments.append((0, lo_y, 0, hi_y, axis))
    segments += [(a, hi_y, a, lo_y, bold) for a in verticals]
    segments += [(lo_x, b, hi_x, b, bold) for b in horizontals]
    for s in antidiagonals:  # z1 + z2 = s clipped to the bounding box
        x_start, x_end = max(lo_x, s - hi_y), min(hi_x, s - lo_y)
        if x_start <= x_end:
            segments.append((x_start, s - x_start, x_end, s - x_end, thin))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    parts += [
        f'<line x1="{px(x1):g}" y1="{py(y1):g}" x2="{px(x2):g}" y2="{py(y2):g}" {style}/>'
        for x1, y1, x2, y2, style in segments
    ]
    cx = {key: px(x) for x, key in xs}  # each marked value's position, once
    cy = {key: py(y) for y, key in ys}
    parts += [
        f'<circle cx="{cx[x]:g}" cy="{cy[y]:g}" r="4" fill="black"/>'
        for (x, y), reducible in marks.items()
        if reducible
    ]
    y_text = py(lo_y) + MARGIN / 2
    parts += [
        f'<text x="{MARGIN}" y="{y_text + 20 * i:g}" font-size="12">{line}</text>'
        for i, line in enumerate(legend)
    ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
