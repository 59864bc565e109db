import hashlib
import json
import pickle
from collections import Counter
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import ceil, floor
from operator import is_

import pytest
from hypothesis import example, given, settings, strategies as st

import gvmred.gk as gk_module
import gvmred.harness as harness_mod
import gvmred.verdict as verdict_mod
from gvmred import (
    GridSpec,
    LieType,
    ParabolicSetup,
    ParameterGrid,
    UnsupportedGrid,
    criterion,
    family_setups,
    render_diagram,
    report_to_csv,
    report_to_json,
    standard_grid,
    sweep,
    verify_family,
)
from gvmred.exact import decode_point, form_values, saturate
from gvmred.gk import key_readers, split_classes
from gvmred.harness import (
    FAMILY_MIN_N,
    MAX_FAMILY_POINTS,
    MAX_GRID_POINTS,
    MismatchReport,
    SweepRow,
    family_point_bound,
    format_field,
    grid_from_spec,
)
from gvmred.verdict import Verdict, evaluate

from conftest import SIGMA, TAU, saturated_form_values, sc, scalar_pairs
from references import criterion_values, exact_cell_memo_keys, plan_parts, reader_classes

FORM_LISTS = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any), min_size=1, max_size=6
)

A = lambda n: LieType("A", n)
D = lambda n: LieType("D", n)


def test_standard_grid_contents():
    setup = ParabolicSetup(A(8), 2, 5)
    grid = standard_grid(setup)
    points = set(grid.points())
    for v in ("-5/2", -2, "-3/2"):
        assert (sc(v), sc(v)) in points
    assert (TAU, SIGMA) in points
    assert (sc("1/3"), sc(0)) in points
    # coupled symbol offsets with integral sum
    assert (sc(-1) + TAU, sc(-2) - TAU) in points
    # generic diagonal
    assert (sc(-1) + TAU, sc(-1) + TAU) in points
    rationals = [v for v in grid.z1_values if v.is_rational]
    assert min(v.rational for v in rationals) == -(setup.n + 2)
    assert max(v.rational for v in rationals) == 3


def test_standard_grid_type_d_columns():
    setup = ParabolicSetup(D(6), 1, 5)
    points = set(standard_grid(setup).points())
    for z2 in range(-5, 1):
        assert (sc(-1), sc(z2)) in points


def test_sweep_diagonal_counts():
    setup = ParabolicSetup(A(8), 2, 5)
    values = tuple(sc(Fraction(k, 2)) for k in range(-8, 3))  # -4 .. 1
    grid = ParameterGrid(z1_values=(), z2_values=(), extra_points=tuple(zip(values, values)))
    report = sweep(setup, grid)
    assert len(report.rows) == len(grid) == 11
    summary = report.summary
    assert summary["reducible"] == 7
    assert summary["irreducible"] == 4
    assert summary["mismatches"] == 0
    assert summary["errors"] == 0


def test_sweep_type_d_integer_column_is_reducible():
    setup = ParabolicSetup(D(6), 1, 5)
    z2s = tuple(sc(v) for v in range(-5, 1))
    grid = ParameterGrid(
        z1_values=(), z2_values=(), extra_points=tuple((sc(0), z2) for z2 in z2s)
    )
    report = sweep(setup, grid)
    assert all(row.verdict.reducible for row in report.rows)


def test_sweep_row_count_matches_grid_cardinality():
    setup = ParabolicSetup(A(5), 1, 3)
    grid = standard_grid(setup)
    report = sweep(setup, grid)
    assert len(report.rows) == len(grid)
    s = report.summary
    assert s["points"] == len(grid)
    assert s["reducible"] + s["irreducible"] == len(report.rows)


def test_family_setups_enumeration():
    a_setups = family_setups("A", 5)
    assert [(s.n, s.p, s.q) for s in a_setups] == [
        (3, 1, 2),
        (4, 1, 2),
        (4, 1, 3),
        (4, 2, 3),
        (5, 1, 2),
        (5, 1, 3),
        (5, 1, 4),
        (5, 2, 3),
        (5, 2, 4),
        (5, 3, 4),
    ]
    d_setups = family_setups("D", 5)
    assert [(s.n, s.p, s.q) for s in d_setups] == [
        (4, 1, 3),
        (4, 1, 4),
        (4, 3, 4),
        (5, 1, 4),
        (5, 1, 5),
        (5, 4, 5),
    ]


def test_verify_family_small_clean():
    report = verify_family("A", 4)
    assert report.ok
    assert report.setups_checked == 4
    assert report.points_checked > 0
    assert report.points_checked == report.grid_points
    assert report.errors == []


def _broken_criterion(setup, values):
    raise RuntimeError("criterion failed")


def test_verify_family_fails_when_every_point_raises(monkeypatch):
    """A criterion that raises at every miss fails every cell, so every
    point of every setup."""
    monkeypatch.setattr("gvmred.verdict.on_half_line", _broken_criterion)
    report = verify_family("A", 4)
    assert not report.ok
    assert report.points_checked == 0
    assert report.grid_points == sum(len(standard_grid(s)) for s in family_setups("A", 4))
    assert len(report.errors) == report.grid_points
    setup, z1, z2, exc = report.errors[0]
    assert setup == family_setups("A", 4)[0] and "criterion failed" in exc


def test_grid_points_listed_once():
    grid = standard_grid(ParabolicSetup(A(5), 1, 3))
    points = grid.points()
    assert grid.points() is points
    assert len(grid) == len(points) == len(set(points))


def test_standard_grid_is_shared_within_a_rank():
    first = standard_grid(ParabolicSetup(A(6), 1, 3))
    assert standard_grid(ParabolicSetup(A(6), 2, 5)) is first
    assert standard_grid(ParabolicSetup(D(6), 1, 5)) is first  # the grid depends on n only
    other = standard_grid(ParabolicSetup(A(7), 1, 3))
    assert other is not first and len(other) > len(first)


@pytest.mark.parametrize("kind, n_max, ranks", [("A", 9, 7), ("D", 8, 5)])
def test_verify_family_builds_one_grid_per_rank(monkeypatch, kind, n_max, ranks):
    built = []

    def counted(spec):
        built.append(spec)
        return grid_from_spec(spec)

    harness_mod._rank_grid.cache_clear()  # no grid left over from another test
    monkeypatch.setattr(harness_mod, "grid_from_spec", counted)
    try:
        report = verify_family(kind, n_max)
    finally:
        harness_mod._rank_grid.cache_clear()  # nor one built through the patch
    assert len(built) == len(set(built)) == ranks
    assert report.ok and report.points_checked == report.grid_points
    assert report.setups_checked == len(family_setups(kind, n_max))


def test_building_a_grid_decodes_nothing_and_a_rank_decodes_each_point_once(monkeypatch):
    """The form columns are built lazily: listing the points decodes none of
    them, and the sweeps of every setup of one rank, which share the grid,
    decode each point once between them."""
    decoded = []

    def counted(z1, z2):
        decoded.append((z1, z2))
        return decode_point(z1, z2)

    harness_mod._rank_grid.cache_clear()  # a grid no other test has swept
    monkeypatch.setattr(harness_mod, "decode_point", counted)
    try:
        for kind, n in (("A", 6), ("D", 7)):
            setups = [s for s in family_setups(kind, n) if s.n == n]
            grid = standard_grid(setups[0])
            assert len(grid) == len(grid.points()) and not decoded
            for setup in setups:
                assert standard_grid(setup) is grid
                assert not sweep(setup, grid).errors
            assert len(decoded) == len(grid) and set(decoded) == set(grid.points())
            decoded.clear()
    finally:
        harness_mod._rank_grid.cache_clear()  # nor one decoded through the patch


def test_the_setups_of_a_type_a_rank_build_the_cells_once(monkeypatch):
    """Every type-A setup of one rank has the same forms, so their sweeps
    share one numbering of the grid's cells: between them they read each
    form column of the grid once."""
    form_column = ParameterGrid.form_column
    calls = []

    def counted(grid, form):
        calls.append(form)
        return form_column(grid, form)

    setups = [s for s in family_setups("A", 7) if s.n == 7]
    forms = setups[0].gk_key.forms
    assert len(setups) == 15 and all(s.gk_key.forms == forms for s in setups)
    grid = grid_from_spec(harness_mod._standard_spec(7))  # nothing kept on it yet
    monkeypatch.setattr(ParameterGrid, "form_column", counted)
    for setup in setups:
        assert not sweep(setup, grid).errors
    assert calls == list(forms)


def _record_sweep_inputs(monkeypatch) -> tuple[list, list, list]:
    """From now on, each ``saturate`` call a sweep makes, as (window,
    clamped ints): those of ``ParameterGrid.form_cells``, one per form at
    the setup's windows when the sweep builds its coarsening, each over
    the distinct ints of a form of the exact cells; the exact form values
    each of its memo misses hands to ``_gk_from_plan`` and those each
    hands to ``on_half_line``, in grid order."""
    clamped, misses, half_line_values = [], [], []
    gk_from_plan, half_line = gk_module._gk_from_plan, verdict_mod.on_half_line

    def recording_saturate(column, window):
        clamped.append((window, saturate(column, window)))
        return clamped[-1][1]

    def recording_miss(plan, exact):
        misses.append(exact)
        return gk_from_plan(plan, exact)

    def recording_half_line(setup, values):
        half_line_values.append(values)
        return half_line(setup, values)

    monkeypatch.setattr(harness_mod, "saturate", recording_saturate)
    monkeypatch.setattr(gk_module, "_gk_from_plan", recording_miss)
    monkeypatch.setattr(verdict_mod, "on_half_line", recording_half_line)
    return clamped, misses, half_line_values


CUSTOM_GRID = grid_from_spec(GridSpec(Fraction(-7, 3), Fraction(5, 2), Fraction(5, 6)))


@pytest.mark.parametrize(
    "setups",
    [family_setups("A", 7), family_setups("D", 9)],
    ids=["A<=7", "D<=9"],
)
def test_sweep_reads_the_one_point_form_values_off_the_columns(monkeypatch, setups):
    """On every point of the standard grids and of a custom grid, the
    clamped values a sweep reads off the point's coarse cell, its first
    cell's exact values clamped at the setup's windows, are
    ``form_values`` of the point saturated at the setup's windows, and
    distinct per coarse cell; the sweep's ``saturate`` calls, when it
    builds the coarsening, clamp each form's distinct exact ints at the
    setup's windows; and its misses, one at the first point of each such
    key, hand ``_gk_from_plan`` and ``on_half_line`` the exact
    ``form_values`` of that point."""
    clamped, misses, half_line_values = _record_sweep_inputs(monkeypatch)
    checked = 0
    for setup in setups:
        forms, windows, _, _, _ = setup.gk_key
        for grid in (standard_grid(setup), CUSTOM_GRID):
            clamped.clear()
            misses.clear()
            half_line_values.clear()
            assert not sweep(setup, grid).errors
            cells, exact, _, _, (coarse, firsts), _ = grid.form_cells(forms, windows)
            assert [window for window, _ in clamped] in ([], list(windows))
            for f, (window, ints) in enumerate(clamped):
                distinct = sorted({values[f] for values in exact} - {None})
                assert sorted(ints) == sorted(saturate(distinct, window)), (setup, f)
            coarse_keys = [saturated(exact[first], windows) for first in firsts]
            assert len(set(coarse_keys)) == len(coarse_keys)
            keys = [coarse_keys[coarse[cell]] for cell in cells]
            assert len(keys) == len(grid)
            first = {}
            for (z1, z2), key in zip(grid.points(), keys):
                assert key == saturated_form_values(forms, windows, z1, z2), (setup, z1, z2)
                first.setdefault(key, form_values(forms, z1, z2))
            assert misses == list(first.values()), setup
            assert half_line_values == list(first.values()), setup
            checked += len(keys)
    assert checked > 25000


@pytest.mark.parametrize(
    "setups",
    [family_setups("A", 7), family_setups("D", 9)],
    ids=["A<=7", "D<=9"],
)
def test_criterion_column_matches_the_one_point_criterion(setups):
    """On every point of the standard grids and of a custom grid, the
    criterion a sweep reads off the point's memo key is the one-point
    ``criterion``, and the half-line test on the scalars' own sums."""
    checked = 0
    for setup in setups:
        b1, b2, b12 = setup.half_lines
        for grid in (standard_grid(setup), CUSTOM_GRID):
            rows = sweep(setup, grid).rows
            assert len(rows) == len(grid)
            for row in rows:
                z1, z2 = row.z1, row.z2
                expected = (
                    (z1.is_integer and z1.rational >= b1)
                    or (z2.is_integer and z2.rational >= b2)
                    or ((z1 + z2).is_integer and (z1 + z2).rational >= b12)
                )
                assert row.verdict.criterion is criterion(setup, z1, z2) is expected, (
                    setup, str(z1), str(z2),
                )
            checked += len(rows)
    assert checked > 25000


CRITERION_FORMS = ((2, 0), (0, 2), (2, 2))


def test_criterion_forms_are_the_scalar_sums_on_every_verify_grid():
    """The form values over (2, 0), (0, 2) and (2, 2), which the criterion
    reads, are z1, z2 and z1 + z2 as the reference ``criterion_values``
    reads them off the scalars, at every point of the rank-14 type A and
    rank-43 type D standard grids and of the picture test's custom grids.
    Every smaller rank's standard grid lies in the one of its family's
    largest rank under ``MAX_FAMILY_POINTS``, so this covers every point a
    verification can sweep."""
    grids = [grid_from_spec(spec) for spec in PICTURE_SPECS]
    for kind, largest in (("A", 14), ("D", 43)):
        assert family_point_bound(kind, largest) <= MAX_FAMILY_POINTS
        assert family_point_bound(kind, largest + 1) > MAX_FAMILY_POINTS
        grid = grid_from_spec(harness_mod._standard_spec(largest))
        axis, extra = set(grid.z1_values), set(grid.extra_points)
        for n in range(FAMILY_MIN_N[kind], largest):
            smaller = grid_from_spec(harness_mod._standard_spec(n))
            assert smaller.z1_values == smaller.z2_values and grid.z1_values == grid.z2_values
            assert axis.issuperset(smaller.z1_values), (kind, n)
            assert extra.issuperset(smaller.extra_points), (kind, n)
        grids.append(grid)
    checked = 0
    for grid in grids:
        values = list(zip(*map(grid.form_column, CRITERION_FORMS)))
        assert values == criterion_values(grid.points())
        checked += len(values)
    assert checked > 3323 + 19505


def _fresh(setup):
    """An equal setup with nothing computed on it yet, no class plan
    included."""
    return ParabolicSetup(setup.lie, setup.p, setup.q)


@pytest.mark.parametrize(
    "setups",
    [family_setups("A", 7), family_setups("D", 9)],
    ids=["A<=7", "D<=9"],
)
def test_sweep_rows_are_the_one_point_verdicts(setups):
    """On every point of the standard grids and of a custom grid, a sweep's
    row is a ``SweepRow`` of the point and its one-point ``evaluate``."""
    checked = 0
    for setup in map(_fresh, setups):
        for grid in (standard_grid(setup), CUSTOM_GRID):
            report = sweep(setup, grid)
            assert not report.errors and len(report.rows) == len(grid)
            for row, (z1, z2) in zip(report.rows, grid.points()):
                assert type(row) is SweepRow
                assert row == SweepRow((z1, z2, evaluate(setup, z1, z2))), (setup, z1, z2)
            checked += len(grid)
    assert checked > 25000


@pytest.mark.parametrize(
    "setups",
    [family_setups("A", 7), family_setups("D", 9)],
    ids=["A<=7", "D<=9"],
)
def test_class_plans_are_the_class_splits_of_their_patterns(setups):
    """A sweep builds one class plan per None pattern its points' form
    values have, and at every point the classes of the plan of its
    pattern, its signed indices read off the point's values, each class
    cut to its own runs and its empty runs dropped, are the split the
    readers of those values give, less its unlabeled one-block classes, a
    labeled class of three blocks read through the spin swap: its last
    block's one key -y dropped and y appended to the middle block's run."""
    for setup in map(_fresh, setups):
        forms = setup.gk_key.forms
        patterns = set()
        for grid in (standard_grid(setup), CUSTOM_GRID):
            assert not sweep(setup, grid).errors
            for exact in set(zip(*[grid.form_column(form) for form in forms])):
                pattern = tuple(None if v is None else 0 for v in exact)
                patterns.add(pattern)
                values = (0, *exact, *[None if v is None else -v for v in reversed(exact)])
                _, classes = setup.class_plans[pattern]
                planned = []
                for labeled, runs in classes:
                    own = plan_parts(labeled, runs)[: len(runs)]
                    planned.append((labeled, [(values[i], terms) for i, terms in own if terms]))
                split = reader_classes(setup, exact)
                kept = [(labeled, parts) for labeled, parts in split if labeled or len(parts) > 1]
                for k, (labeled, parts) in enumerate(kept):
                    if labeled and len(parts) == 3:  # X, R, -y read as X, then R and y
                        (y, terms), last = parts[1], parts[2]
                        assert last == (-y, (0,)), (setup, exact)
                        kept[k] = labeled, [parts[0], (y, (*terms, terms[-1] - 2))]
                assert planned == kept, (setup, exact)
        assert set(setup.class_plans) == patterns, setup


@pytest.mark.parametrize(
    "setups",
    [family_setups("A", 7), family_setups("D", 9)],
    ids=["A<=7", "D<=9"],
)
def test_class_plans_carry_constant_deficits_and_doubled_parts(setups):
    """Every plan a sweep over the standard grid and a custom grid compiles:
    its base is the type's triangular bound less m(m - 1)/2 for each
    unlabeled one-block class of its pattern's split, m that block's run
    length; it keeps every other class and no such one; each labeled class
    lists each member block's run once, its doubled rho run, but that of
    three blocks, the so(2n) (1, n - 1) class, whose last block's run (0)
    is dropped and whose middle run gets one more key, 0 (y); and each
    class is (labeled, runs) of (index, top term, length) int triples,
    three runs when unlabeled and two when labeled, a padded run coming
    last, empty, with the index of the run before it and just below it."""
    checked = 0
    for setup in map(_fresh, setups):
        for grid in (standard_grid(setup), CUSTOM_GRID):
            assert not sweep(setup, grid).errors
        n, runs = setup.lie.n, setup.block_plan.rho_runs
        sums = setup.gk_key.sums
        bound = n * (n - 1) // 2 if setup.lie.kind == "A" else n * (n - 1)
        for pattern, (base, classes) in setup.class_plans.items():
            difference, total = key_readers(setup, pattern)
            split = split_classes(len(runs), difference, total)
            heads = [members[0][0] for members in split if len(members) == 1]
            constant = [len(runs[h]) for h in heads if total is None or total(h, h) is None]
            assert base == bound - sum(m * (m - 1) // 2 for m in constant), (setup, pattern)
            assert len(classes) == len(split) - len(constant), (setup, pattern)
            kept = [  # the split less its unlabeled one-block classes
                members
                for members in split
                if len(members) > 1 or total is not None and total(members[0][0], members[0][0]) is not None
            ]
            for members, (labeled, class_runs) in zip(kept, classes):
                assert labeled or len(class_runs) > 1, (setup, pattern)
                assert len(class_runs) == 3 - labeled, (setup, pattern)
                assert all(
                    len(run) == 3 and all(type(x) is int for x in run) for run in class_runs
                ), (setup, pattern)
                step = 2 if labeled else 1
                for k, (i, top, length) in enumerate(class_runs):
                    if length == 0:  # padding: last, just below the run before it
                        j, above, count = class_runs[k - 1]
                        assert k == len(class_runs) - 1 and count, (setup, pattern)
                        assert (i, top) == (j, above - step * count), (setup, pattern)
                if labeled:
                    own = [p for p in plan_parts(labeled, class_runs)[: len(class_runs)] if p[1]]
                    doubled = [(sums[b][b], tuple(2 * r for r in runs[b])) for b, _ in members]
                    if len(doubled) == 3:
                        (i, terms), last = doubled[1], doubled.pop()
                        assert last == (-i, (0,)) and (setup.p, setup.q) == (1, n - 1)
                        doubled[1] = i, (*terms, 0)
                    assert own == doubled, (setup, pattern)
            checked += 1
    assert checked > 100


def test_an_empty_grid_sweeps_to_an_empty_report():
    for setup in (ParabolicSetup(A(5), 1, 3), ParabolicSetup(D(6), 1, 5)):
        report = sweep(setup, ParameterGrid((), ()))
        assert report.rows == [] and report.errors == []
        assert report.summary["points"] == 0


def test_column_pass_errors_record_every_point(monkeypatch):
    """A column pass that raises (the form columns, the cell table built
    from them, cells and None patterns at once, its clamp) records every
    point of the setup in ``errors``; no traceback escapes the sweep."""
    setup = ParabolicSetup(A(5), 1, 3)
    grid = standard_grid(setup)
    strings = [(str(z1), str(z2)) for z1, z2 in grid.points()]

    def broken_form_column(grid, form):
        raise RuntimeError("column failed")

    def broken_form_cells(grid, forms, *windows):
        raise RuntimeError("cells failed")

    def broken_saturate(column, window):
        raise RuntimeError("clamp failed")

    for owner, name, broken, message in (
        (ParameterGrid, "form_column", broken_form_column, "column failed"),
        (ParameterGrid, "form_cells", broken_form_cells, "cells failed"),
        (harness_mod, "saturate", broken_saturate, "clamp failed"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, broken)
            # a grid with no columns or cells kept, so each entry point is reached
            report = sweep(setup, grid_from_spec(harness_mod._standard_spec(setup.n)))
        assert report.rows == []
        assert [(z1, z2) for z1, z2, _ in report.errors] == strings
        assert all(message in exc for _, _, exc in report.errors)
        assert report.summary["points"] == len(grid)
    assert sweep(setup, grid).summary["errors"] == 0


def test_a_raising_miss_records_its_point_and_is_not_memoised(monkeypatch):
    """A miss that raises costs only its point, and the next point with the
    same key misses again."""
    setup = ParabolicSetup(A(5), 1, 3)
    grid = standard_grid(setup)
    gk_from_plan = gk_module._gk_from_plan
    calls = []

    def fails_once(plan, exact):
        calls.append(exact)
        if len(calls) == 1:
            raise RuntimeError("miss failed")
        return gk_from_plan(plan, exact)

    clean = sweep(setup, grid)
    monkeypatch.setattr(gk_module, "_gk_from_plan", fails_once)
    report = sweep(setup, grid)
    z1, z2 = grid.points()[0]
    assert report.errors == [(str(z1), str(z2), "RuntimeError('miss failed')")]
    assert report.rows == clean.rows[1:]
    forms, windows, _, _, _ = setup.gk_key
    keys = [saturated_form_values(forms, windows, a, b) for a, b in grid.points()]
    assert keys.count(keys[0]) > 1  # so the first key misses twice
    assert len(calls) == len(set(keys)) + 1


@pytest.mark.parametrize(
    "setup", [ParabolicSetup(A(5), 1, 3), ParabolicSetup(D(6), 1, 5)], ids=["A5", "D6"]
)
def test_a_raising_plan_lookup_costs_only_its_cell(monkeypatch, setup):
    """The class plan is looked up inside a miss: when the lookup raises
    once, at the first cell, ``errors`` lists exactly that cell's points,
    the rows are the clean sweep's rows without them, and the next miss of
    that pattern looks it up again, each other pattern once."""
    grid = standard_grid(setup)
    forms = setup.gk_key.forms
    cells, _, _, patterns, _, _ = grid.form_cells(forms)
    plan_of = gk_module.plan_of
    calls = []

    def fails_once(setup, pattern):
        calls.append(pattern)
        if len(calls) == 1:
            raise RuntimeError("plan failed")
        return plan_of(setup, pattern)

    clean = sweep(setup, grid)
    monkeypatch.setattr(gk_module, "plan_of", fails_once)
    report = sweep(setup, grid)
    failing = [i for i, cell in enumerate(cells) if cell == 0]
    points = grid.points()
    assert report.errors == [
        (str(points[i][0]), str(points[i][1]), "RuntimeError('plan failed')") for i in failing
    ]
    assert report.rows == [row for row, cell in zip(clean.rows, cells) if cell]
    assert calls.count(calls[0]) == 2 and len(set(calls)) == len(patterns) == len(calls) - 1


def test_each_cells_pattern_number_names_its_none_pattern():
    """On the rank-14 A and rank-43 D standard grids, the largest verify
    sweeps, and every form set their setups read: ``form_cells`` gives
    each cell a pattern number, numbered in order of first occurrence,
    the patterns are distinct, and each cell's number names its exact
    values' None pattern (every int made 0); the table is kept, so a
    second call returns the same object, and sweeping every setup of the
    rank leaves one exact part per form set and one table per form set
    and setup windows, the kept ones, every table of a form set holding
    its one exact part.  Each table's coarsening gives each cell a coarse
    cell, numbered in order of first occurrence, whose first cell is
    listed; the coarse cells' values, their first cells' exact values
    clamped at the setup's windows, are distinct, and each cell's exact
    values, clamped there, are its coarse cell's values."""
    checked = 0
    for kind, n in (("A", 14), ("D", 43)):
        grid = grid_from_spec(harness_mod._standard_spec(n))
        setups = [s for s in family_setups(kind, n) if s.n == n]
        keys = {(s.gk_key.forms, s.gk_key.windows) for s in setups}
        form_sets = {forms for forms, _ in keys}
        assert len(form_sets) == (1 if kind == "A" else 2)
        kept = {key: grid.form_cells(*key) for key in keys}
        for setup in setups:
            sweep(setup, grid)
        assert grid._tables.keys() == kept.keys() and grid._cells.keys() == form_sets
        for forms in form_sets:
            cells, exact, numbers, patterns, sizes = grid._cells[forms]
            assert len(cells) == len(grid) and len(set(exact)) == len(exact)
            assert len(numbers) == len(exact) and len(set(patterns)) == len(patterns)
            assert list(dict.fromkeys(numbers)) == list(range(len(patterns)))
            for values, number in zip(exact, numbers):
                assert patterns[number] == tuple(None if v is None else 0 for v in values)
            checked += len(exact)
        for (forms, windows), table in kept.items():
            assert grid.form_cells(forms, windows) is table
            assert grid._tables[forms, windows] is table
            exact_part = (*table[:4], table[5])
            assert all(map(is_, exact_part, grid._cells[forms]))
            _, exact, _, _, (coarse, firsts), _ = table
            assert len(coarse) == len(exact) and first_cells(coarse) == dict(enumerate(firsts))
            coarse_values = [saturated(exact[first], windows) for first in firsts]
            assert len(set(coarse_values)) == len(coarse_values)
            for values, c in zip(exact, coarse):
                assert saturated(values, windows) == coarse_values[c]
    assert checked > 10000


class _GKValue(int):
    """A GK dimension as the sweeps' misses return it, so that a walk can
    tell it from the ints of a cell table."""


def _reachable(root) -> list:
    """Every object reachable from ``root`` through containers and
    attributes, ``__slots__`` ones too, each once."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
        else:
            todo.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        todo.append(getattr(obj, name))
    return found


@pytest.mark.parametrize("kind, n_max", [("A", 7), ("D", 9)], ids=["A<=7", "D<=9"])
def test_grids_keep_cell_tables_but_no_verdict_or_gk_value(monkeypatch, kind, n_max):
    """After every setup is swept over its standard grid and over the
    custom grid, each with nothing kept on it before, no ``Verdict`` and
    no GK value the misses returned is reachable from anything the grid
    keeps; the grid keeps one exact part per form set of the setups swept
    over it and one table per distinct (forms, ``gk_key.windows``), each
    with a coarsening of its own and its form set's exact part."""
    gk_from_plan = gk_module._gk_from_plan
    monkeypatch.setattr(gk_module, "_gk_from_plan", lambda *args: _GKValue(gk_from_plan(*args)))
    setups = family_setups(kind, n_max)
    custom = ParameterGrid(CUSTOM_GRID.z1_values, CUSTOM_GRID.z2_values, CUSTOM_GRID.extra_points)
    swept = {custom: setups}
    for n in sorted({s.n for s in setups}):
        swept[grid_from_spec(harness_mod._standard_spec(n))] = [s for s in setups if s.n == n]
    tagged = 0
    for grid, grid_setups in swept.items():
        for setup in grid_setups:
            report = sweep(setup, grid)
            assert not report.errors and len(report.rows) == len(grid)
            tagged += sum(type(row.verdict.gk) is _GKValue for row in report.rows)
        # the walk reaches a row's GK value
        assert any(type(obj) is _GKValue for obj in _reachable(report.rows))
        kept = _reachable(vars(grid))
        assert not [obj for obj in kept if isinstance(obj, (Verdict, _GKValue, SweepRow))]
        assert grid._cells.keys() == {s.gk_key.forms for s in grid_setups}
        assert grid._tables.keys() == {(s.gk_key.forms, s.gk_key.windows) for s in grid_setups}
        coarsenings = [table[4] for table in grid._tables.values()]
        assert len(set(map(id, coarsenings))) == len(coarsenings)
        for (forms, windows), table in grid._tables.items():
            assert all(map(is_, (*table[:4], table[5]), grid._cells[forms]))
            assert table[4] == harness_mod._coarsen(table[1], windows)
    assert tagged == sum(len(grid) * len(grid_setups) for grid, grid_setups in swept.items())


def saturated(values, windows) -> tuple:
    """``values`` with each int clamped at its window by ``saturate``."""
    return tuple(saturate((v,), w)[0] for v, w in zip(values, windows))


def first_cells(coarse) -> dict:
    """Every coarse cell of ``coarse``, in order of first occurrence, with
    the index of its first occurrence."""
    first = {}
    for cell, c in enumerate(coarse):
        first.setdefault(c, cell)
    return first


def test_cell_keys_read_through_the_coarsening_are_the_exact_cells_keys():
    """For every setup of A up to rank 14 and D up to rank 43, the largest
    verify families, two exact cells share a coarse cell of the table at
    the setup's windows exactly when the exact cells' own memo keys
    (``exact_cell_memo_keys``, the route before the coarse cells were the
    keys) are equal; the coarse cells are numbered in order of first
    occurrence from their listed first cells, and they are as many as the
    family's misses.  Sweeping every setup leaves one exact part per form
    set of each rank."""
    checked = coarse_cells = tables = 0
    for kind, n_max in (("A", 14), ("D", 43)):
        setups = family_setups(kind, n_max)
        for n in sorted({s.n for s in setups}):
            grid = grid_from_spec(harness_mod._standard_spec(n))
            for setup in (s for s in setups if s.n == n):
                forms, windows, _, _, _ = setup.gk_key
                _, exact, _, _, (coarse, firsts), _ = grid.form_cells(forms, windows)
                keys = exact_cell_memo_keys(exact, windows)
                assert len(keys) == len(coarse) == len(exact), setup
                pairs = set(zip(coarse, keys))
                assert len(pairs) == len(set(coarse)) == len(set(keys)) == len(firsts), setup
                assert first_cells(coarse) == dict(enumerate(firsts)), setup
                checked += len(keys)
                coarse_cells += len(firsts)
            tables += len(grid._cells)
    # the misses of verify A <= 14 and D <= 43
    assert checked == 135681 + 250440 and coarse_cells == 50843 + 127500
    # one exact part per type-A rank, 3 to 14, and two per type-D rank, 4 to 43
    assert tables == 12 + 2 * 40


@pytest.mark.parametrize("values", [tuple("abcdef"), dict(enumerate("abcdef"))], ids=type)
def test_gather_reads_every_index_in_order(values):
    """``_gather`` gives ``values[i]`` for every index, in order, as a
    tuple, for no index, one and many, repeated and unordered ones too,
    over a tuple and a dict alike."""
    for indices in ((), (4,), [0], (5, 0, 5, 2), list(range(6)) * 3):
        gathered = harness_mod._gather(values, indices)
        assert type(gathered) is tuple
        assert gathered == tuple(values[i] for i in indices), indices
    with pytest.raises((IndexError, KeyError)):
        harness_mod._gather(values, (1, 6))


# A setup's windows at MAX_RANK (2 000) stay within this bound: so(4000)
# (1, 1999) has lo = -3 999.
WINDOW_BOUND = 4000


@st.composite
def windowed_cells(draw):
    """(windows, cells): one to four windows (lo, hi) within
    ``WINDOW_BOUND``, and cells of one value per window, each None or an
    int below, inside or above its window."""
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(-WINDOW_BOUND, WINDOW_BOUND))
        windows.append((lo, draw(st.integers(lo, WINDOW_BOUND))))
    values = [
        st.one_of(
            st.none(),
            st.integers(lo - 3 * WINDOW_BOUND, lo),
            st.integers(lo, hi),
            st.integers(hi, hi + 3 * WINDOW_BOUND),
            st.sampled_from((lo - 1, lo, hi, hi + 1)),
        )
        for lo, hi in windows
    ]
    cells = draw(st.lists(st.tuples(*values), min_size=1, max_size=30))
    return tuple(windows), tuple(cells)


@settings(max_examples=100, deadline=None)
@given(windowed_cells())
# so(4000) (1, 1999)'s first two windows, values at and past their ends
@example(
    (
        ((-3999, -3997), (-2000, 0)),
        ((-5000, None), (-3998, 0), (-3997, 1), (None, -2000), (-3999, 1)),
    )
)
def test_memo_keys_are_equal_exactly_when_the_clamped_values_are(case):
    """``_coarsen`` gives two cells one coarse cell, a sweep's memo key,
    exactly when their values, clamped at the windows with ``saturate``,
    are equal; the coarse cells are numbered in order of first occurrence
    from their listed first cells; and with no windows every cell is its
    own coarse cell."""
    windows, cells = case
    coarse, firsts = harness_mod._coarsen(cells, windows)
    clamped = [saturated(values, windows) for values in cells]
    assert len(coarse) == len(cells) and all(type(c) is int for c in coarse)
    assert first_cells(coarse) == dict(enumerate(firsts))
    for c, values in zip(coarse, clamped):
        for other_c, other in zip(coarse, clamped):
            assert (c == other_c) == (values == other), (windows, values, other)
    every = tuple(range(len(cells)))
    assert harness_mod._coarsen(cells, None) == (every, every)


def test_sweeps_at_the_largest_rank_are_the_one_point_verdicts():
    """At the largest rank the CLI accepts, on so(4000) (1, 1999) and
    sl(2000) (1998, 1999), a sweep of a small custom grid whose values
    reach into each window and past both ends gives at every point the
    row of its one-point ``evaluate``, both verdicts met."""
    values = [-4000, -3998, -2002, -1999, -1998, Fraction(-3993, 2), -1996, -1995, -2, -1]
    values += [Fraction(-1, 2), 0, Fraction(1, 3), 1, 2001]
    axis = (*map(sc, values), TAU, SIGMA)
    extra = tuple((a + TAU, b - TAU) for a in axis[2:8] for b in axis[8:14])
    grid = ParameterGrid(axis, axis, extra)
    for setup in (ParabolicSetup(D(2000), 1, 1999), ParabolicSetup(A(2000), 1998, 1999)):
        report = sweep(setup, grid)
        assert not report.errors and len(report.rows) == len(grid) > 250
        for row, (z1, z2) in zip(report.rows, grid.points()):
            assert row == SweepRow((z1, z2, evaluate(setup, z1, z2))), (setup, z1, z2)
        assert 0 < report.summary["reducible"] < len(grid), setup
        assert report.summary["mismatches"] == 0, setup


def test_sweep_row_is_a_tuple_with_named_fields():
    """A ``SweepRow`` is built from one tuple and is that tuple: equal to
    it and to a row of the same values, its fields read by name, a
    NamedTuple-style repr, and a pickle round trip that keeps its type."""
    verdict = Verdict(gk=5, dim_u=8, reducible=True, criterion=True, agree=True)
    row = SweepRow((sc(-1), TAU, verdict))
    assert type(row) is SweepRow and isinstance(row, tuple)
    assert (row.z1, row.z2, row.verdict) == (sc(-1), TAU, verdict)
    assert row == (sc(-1), TAU, verdict) == SweepRow([sc(-1), TAU, verdict])
    assert row._fields == ("z1", "z2", "verdict") and not hasattr(row, "__dict__")
    assert repr(row) == f"SweepRow(z1={sc(-1)!r}, z2={TAU!r}, verdict={verdict!r})"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(row, protocol))
        assert type(copy) is SweepRow and copy == row and copy.verdict is not verdict


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_scalars_rows_and_reports_pickle_at_every_protocol(protocol):
    """An ``ExactScalar`` (rational, generic and mixed), a ``SweepRow`` and
    the ``SweepReport`` of sl(4) (1, 2) on its standard grid come back
    from a pickle round trip at every protocol equal, hashing alike and
    printing alike."""
    setup = ParabolicSetup(A(4), 1, 2)
    report = sweep(setup, standard_grid(setup))
    scalars = (sc(-1), sc("5/2"), TAU, sc("-1/3") + 2 * TAU - SIGMA)
    for obj in (*scalars, report.rows[0], report.rows[-1], report):
        copy = pickle.loads(pickle.dumps(obj, protocol))
        assert type(copy) is type(obj) and copy == obj and str(copy) == str(obj), obj
        # a report holds lists, so it hashes through its rows
        key = (lambda r: tuple(r.rows)) if obj is report else (lambda z: z)
        assert hash(key(copy)) == hash(key(obj)), obj


@pytest.mark.parametrize(
    "setup", [ParabolicSetup(A(5), 1, 3), ParabolicSetup(D(6), 1, 5)], ids=["A5", "D6"]
)
def test_a_raising_criterion_costs_only_its_cells_points(monkeypatch, setup):
    """The half-line test runs inside a miss: when it raises at one memo
    key, held by several cells, ``errors`` lists exactly that key's points
    in grid order, the rows are the clean sweep's rows without them, and
    the key is not memoised, so each of its cells asks again."""
    grid = standard_grid(setup)
    forms, windows, _, _, _ = setup.gk_key
    points = grid.points()
    cells, _, _, _, _, _ = grid.form_cells(forms)
    keys = [saturated_form_values(forms, windows, z1, z2) for z1, z2 in points]
    by_key = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    target, failing = next(
        (key, indices)
        for key, indices in by_key.items()
        if indices[0] > 0 and len({cells[i] for i in indices}) > 1
    )
    half_line = verdict_mod.on_half_line
    calls = []

    def raises_at_target(setup, values):
        key = tuple(saturate((v,), w)[0] for v, w in zip(values, windows))
        calls.append(key)
        if key == target:
            raise RuntimeError("criterion failed")
        return half_line(setup, values)

    clean = sweep(setup, grid)
    monkeypatch.setattr(verdict_mod, "on_half_line", raises_at_target)
    report = sweep(setup, grid)
    assert report.errors == [
        (str(points[i][0]), str(points[i][1]), "RuntimeError('criterion failed')")
        for i in failing
    ]
    dropped = set(failing)
    assert report.rows == [row for i, row in enumerate(clean.rows) if i not in dropped]
    assert report.summary["points"] == len(grid)
    assert calls.count(target) == len({cells[i] for i in failing}) > 1
    assert len(calls) == len(by_key) - 1 + calls.count(target)


@pytest.mark.parametrize(
    "setup", [ParabolicSetup(A(5), 1, 3), ParabolicSetup(D(6), 1, 5)], ids=["A5", "D6"]
)
def test_a_raising_key_of_several_points_drops_exactly_those_points(monkeypatch, setup):
    """When every miss of one memo key raises, and that key's points are
    several, none of them the first, and share one exact form-value tuple,
    ``errors`` lists exactly those points in grid order, and the rows are
    the clean sweep's rows without them."""
    grid = standard_grid(setup)
    forms, windows, _, _, _ = setup.gk_key
    points = grid.points()
    keys = [saturated_form_values(forms, windows, z1, z2) for z1, z2 in points]
    exact = [form_values(forms, z1, z2) for z1, z2 in points]
    by_key = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    failing = next(
        indices
        for indices in by_key.values()
        if len(indices) > 2 and indices[0] > 0 and len({exact[i] for i in indices}) == 1
    )
    target = exact[failing[0]]
    gk_from_plan = gk_module._gk_from_plan

    def raises_at_target(plan, values):
        if values == target:
            raise RuntimeError("miss failed")
        return gk_from_plan(plan, values)

    clean = sweep(setup, grid)
    monkeypatch.setattr(gk_module, "_gk_from_plan", raises_at_target)
    report = sweep(setup, grid)
    assert report.errors == [
        (str(points[i][0]), str(points[i][1]), "RuntimeError('miss failed')") for i in failing
    ]
    dropped = set(failing)
    assert report.rows == [row for i, row in enumerate(clean.rows) if i not in dropped]
    assert report.summary["points"] == len(grid)


@settings(max_examples=150, deadline=None)
@given(st.lists(scalar_pairs(), min_size=1, max_size=12), FORM_LISTS)
# symbol parts that no nonzero pair cancels, one symbolic parameter, and
# coupled points whose sum is rational
@example([(TAU, SIGMA), (TAU, sc(2)), (sc(2), SIGMA)], [(2, 0), (2, 2), (0, 2), (1, -1)])
@example(
    [(sc("-5/2") + TAU, sc(1) - TAU), (TAU + 1, sc("1/2") - TAU), (TAU, -TAU)],
    [(2, 0), (2, 2), (0, 2), (4, 2), (1, 1), (3, -1)],
)
def test_grid_columns_match_form_values(pairs, forms):
    """A grid's kept columns, exact and saturated, hold ``form_values`` of
    each of its points, and so do its kept cells: distinct tuples of the
    exact values, numbered in order of first occurrence, each numbered
    into its None pattern; the columns of the criterion's forms hold the
    reference ``criterion_values``."""
    windows = [(-2 - i, 1 + i) for i in range(len(forms))]
    grid = ParameterGrid((), (), tuple(pairs))
    exact = [grid.form_column(form) for form in forms]
    assert all(grid.form_column(form) is column for form, column in zip(forms, exact))
    kept = grid.form_cells(tuple(forms))
    assert grid.form_cells(tuple(forms)) is kept
    cells, cell_values, numbers, patterns, _, _ = kept
    assert len(cells) == len(grid) and len(set(cell_values)) == len(cell_values)
    assert list(dict.fromkeys(cells)) == list(range(len(cell_values)))
    saturated = list(map(saturate, exact, windows))
    criteria = list(map(grid.form_column, CRITERION_FORMS))
    for i, (z1, z2) in enumerate(grid.points()):
        assert tuple(column[i] for column in exact) == form_values(forms, z1, z2)
        assert cell_values[cells[i]] == form_values(forms, z1, z2)
        pattern = tuple(None if v is None else 0 for v in form_values(forms, z1, z2))
        assert patterns[numbers[cells[i]]] == pattern
        assert tuple(column[i] for column in criteria) == criterion_values([(z1, z2)])[0]
        saturated_values = saturated_form_values(forms, windows, z1, z2)
        assert tuple(column[i] for column in saturated) == saturated_values


def test_grid_spec_rejects_nonpositive_step():
    for step in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="grid step must be positive"):
            GridSpec(lo=Fraction(0), hi=Fraction(1), step=step)


def test_grid_spec_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="lo <= hi"):
        GridSpec(lo=Fraction(1), hi=Fraction(0))
    with pytest.raises(ValueError, match="lo <= hi"):
        GridSpec(lo=Fraction(1, 3), hi=Fraction(1, 4), step=Fraction(1, 100))
    assert GridSpec(lo=Fraction(1), hi=Fraction(1)).rationals() == [Fraction(1)]


def test_verify_family_below_family_minimum_is_not_ok():
    for kind, n_max in (("A", 2), ("A", -5), ("D", 3)):
        report = verify_family(kind, n_max)
        assert report.setups_checked == 0 and report.points_checked == 0
        assert not report.ok


def test_verify_family_cap_is_checked_before_any_setup(monkeypatch):
    bound = harness_mod.family_point_bound
    assert bound("A", 9) == sum(
        harness_mod._standard_spec(s.n).point_bound for s in family_setups("A", 9)
    )
    # the largest families under the cap, as the CLI documents them
    cap = harness_mod.MAX_FAMILY_POINTS
    for kind, largest in (("A", 14), ("D", 43)):
        assert bound(kind, largest) <= cap < bound(kind, largest + 1)
    assert (bound("A", 14), bound("D", 43)) == (923_650, 985_080)

    def no_work(kind, n_max):
        raise AssertionError("a setup was built")

    monkeypatch.setattr(harness_mod, "family_setups", no_work)
    for kind in ("A", "D"):
        with pytest.raises(ValueError, match="grid points"):
            verify_family(kind, 10**9)


def _never_list(self):
    raise AssertionError("the grid was listed")


def test_grid_spec_rejects_oversized_grid_before_listing(monkeypatch):
    monkeypatch.setattr(GridSpec, "rationals", _never_list)
    with pytest.raises(ValueError, match="more than"):
        GridSpec(lo=Fraction(-10**6), hi=Fraction(10**6))
    with pytest.raises(ValueError, match="more than"):
        GridSpec(lo=Fraction(0), hi=Fraction(1), step=Fraction(1, 10**9))
    # axis 0..L-1 step 1: (L+3)^2 cartesian points plus L^2 + L coupled ones
    length = 1
    while (length + 4) ** 2 + (length + 1) ** 2 + length + 1 <= MAX_GRID_POINTS:
        length += 1
    GridSpec(lo=Fraction(0), hi=Fraction(length - 1), step=Fraction(1))
    with pytest.raises(ValueError, match="more than"):
        GridSpec(lo=Fraction(0), hi=Fraction(length), step=Fraction(1))


def test_grid_point_bound_covers_the_grid():
    for spec in (
        GridSpec(lo=Fraction(-11), hi=Fraction(3)),
        GridSpec(lo=Fraction(-2), hi=Fraction(2), step=Fraction(1, 3)),
        GridSpec(lo=Fraction(1), hi=Fraction(1)),
    ):
        grid = grid_from_spec(spec)
        assert spec.axis_length == len(spec.rationals())
        assert len(grid) <= spec.point_bound
    # the standard grid lists (tau, tau) once, in the cartesian part
    nine = standard_grid(ParabolicSetup(A(9), 3, 6))
    assert len(nine) + 1 == GridSpec(lo=Fraction(-11), hi=Fraction(3)).point_bound
    assert len(nine) < MAX_GRID_POINTS // 100


def test_verify_family_detects_corrupted_criterion(monkeypatch):
    half_line = verdict_mod.on_half_line

    def flipped(setup, key):
        # not the criterion where z1 and z2 are integers, which clamping keeps
        (i, _), (j, _), _ = setup.gk_key.half_lines
        crit = half_line(setup, key)
        return not crit if key[i] is not None and key[j] is not None else crit

    monkeypatch.setattr("gvmred.verdict.on_half_line", flipped)
    report = verify_family("A", 4)
    assert not report.ok
    # every flipped point is a mismatch, whichever way it was flipped
    flips = [
        sum(
            1
            for a, b, _ in criterion_values(standard_grid(setup).points())
            if a is not None and b is not None
        )
        for setup in family_setups("A", 4)
    ]
    assert len(report.mismatches) == sum(flips) > 0
    assert {row.verdict.criterion for _, row in report.mismatches} == {False, True}


def _report_from_rows(kind: str, n_max: int) -> MismatchReport:
    """The family's report read off ``sweep``'s rows: every setup swept
    over its standard grid, its errors kept and every row scanned for
    ``agree``."""
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


def _flip_some_criteria(patch):
    """Flip the criterion on the cells whose z1 value is a multiple of 3."""
    half_line = verdict_mod.on_half_line

    def flipped(setup, values):
        (i, _), _, _ = setup.gk_key.half_lines
        crit = half_line(setup, values)
        return not crit if values[i] is not None and values[i] % 3 == 0 else crit

    patch.setattr(verdict_mod, "on_half_line", flipped)


def _raise_at_some_misses(patch):
    """Raise at the misses whose exact ints sum to a multiple of 5."""
    gk_from_plan = gk_module._gk_from_plan

    def raising(plan, exact):
        if sum(v for v in exact if v is not None) % 5 == 0:
            raise RuntimeError(f"miss failed at {exact}")
        return gk_from_plan(plan, exact)

    patch.setattr(gk_module, "_gk_from_plan", raising)


def _raise_at_every_other_table(patch):
    """Raise at every other ``form_cells`` call, counted per report."""
    form_cells, calls = ParameterGrid.form_cells, []

    def raising(grid, forms, *windows):
        calls.append(forms)
        if len(calls) % 2 == 0:
            raise RuntimeError(f"cells failed at call {len(calls)}")
        return form_cells(grid, forms, *windows)

    patch.setattr(ParameterGrid, "form_cells", raising)
    return calls


@pytest.mark.parametrize("kind, n_max", [("A", 6), ("D", 7)], ids=["A<=6", "D<=7"])
@pytest.mark.parametrize(
    "break_it",
    [_flip_some_criteria, _raise_at_some_misses, _raise_at_every_other_table],
    ids=["criterion", "miss", "column-pass"],
)
def test_verify_family_reports_what_the_rows_report(monkeypatch, kind, n_max, break_it):
    """With the criterion flipped on some cells, a miss raising at some
    keys, or a column pass raising at some setups, ``verify_family``,
    which builds rows only for a setup with a failed or disagreeing cell,
    gives the report read off every setup's ``sweep`` rows, field by
    field: the same mismatches and errors, in the same order, with the
    same text, and the same counts."""
    with monkeypatch.context() as patch:
        calls = break_it(patch)
        expected = _report_from_rows(kind, n_max)
        if calls is not None:
            calls.clear()
        report = verify_family(kind, n_max)
    assert 0 < len(expected.mismatches) + len(expected.errors) < expected.grid_points
    assert not report.ok
    for field in MismatchReport._fields:
        assert getattr(report, field) == getattr(expected, field), field
    assert verify_family(kind, n_max) == _report_from_rows(kind, n_max)


def test_kept_cell_sizes_count_every_point():
    """For every rank grid and form set of the largest verify families, A
    up to rank 14 and D up to rank 43, the per-cell point counts in the
    cell table are each cell's points: they sum to ``len(grid)``."""
    for kind, n_max in (("A", 14), ("D", 43)):
        setups = family_setups(kind, n_max)
        for n in sorted({s.n for s in setups}):
            grid = grid_from_spec(harness_mod._standard_spec(n))
            for forms in {s.gk_key.forms for s in setups if s.n == n}:
                cells, exact, _, _, _, sizes = grid.form_cells(forms)
                assert len(sizes) == len(exact) and sum(sizes) == len(grid), (kind, n, forms)
                assert sizes == tuple(Counter(cells).values()), (kind, n, forms)


def test_a_verification_that_counts_a_point_short_does_not_pass(monkeypatch):
    """``points_checked`` is read off the kept per-cell counts and
    ``grid_points`` off ``len(grid)``: with one cell's count one short,
    and nothing else wrong, the verification fails."""
    decide_cells, shortened = harness_mod.decide_cells, []

    def one_short(setup, grid):
        cells, sizes, outcomes, failed = decide_cells(setup, grid)
        if not shortened:
            shortened.append(setup)
            sizes = (sizes[0] - 1, *sizes[1:])
        return cells, sizes, outcomes, failed

    monkeypatch.setattr(harness_mod, "decide_cells", one_short)
    report = verify_family("A", 5)
    assert not report.mismatches and not report.errors and report.setups_checked == 10
    assert report.points_checked == report.grid_points - 1 and not report.ok


def test_sweeps_are_deterministic():
    setup = ParabolicSetup(D(5), 4, 5)
    grid = standard_grid(setup)
    first = sweep(setup, grid)
    second = sweep(setup, grid)
    assert report_to_csv(first) == report_to_csv(second)
    assert report_to_json(first) == report_to_json(second)


def test_csv_format():
    setup = ParabolicSetup(A(5), 1, 3)
    values = (sc(-2), sc("-3/2"), TAU, sc(-2) + TAU)
    grid = ParameterGrid(z1_values=values, z2_values=values)
    text = report_to_csv(sweep(setup, grid))
    lines = text.strip().split("\n")
    assert lines[0] == "type,n,p,q,z1,z2,gk,dim_u,reducible,criterion,agree"
    assert len(lines) == 1 + len(grid)
    row = lines[1].split(",")
    assert row[0] == "A" and row[1:4] == ["5", "1", "3"]
    assert row[4] == "-2" and row[8] in ("true", "false")
    assert any("tau" in line.split(",")[4] for line in lines[1:])


def test_csv_lines_are_json_rows_through_the_field_formatter():
    setup = ParabolicSetup(A(5), 1, 3)
    values = (sc(-2), sc("-3/2"), TAU, sc(-2) + TAU)
    report = sweep(setup, ParameterGrid(z1_values=values, z2_values=values))
    # a row whose criterion disagrees with the oracle
    report.rows.append(
        SweepRow((sc(1), SIGMA, Verdict(gk=8, dim_u=8, reducible=False, criterion=True, agree=False)))
    )
    header, *lines = report_to_csv(report).splitlines()
    rows = json.loads(report_to_json(report))["rows"]
    assert len(lines) == len(rows) == len(report.rows)
    for line, row in zip(lines, rows):
        assert header.split(",") == list(row)
        assert line == ",".join(format_field(value) for value in row.values())
    assert lines[-1] == "A,5,1,3,1,sigma,8,8,false,true,false"
    assert [format_field(v) for v in (True, False, 0, "tau")] == ["true", "false", "0", "tau"]


# SHA-256 of report_to_csv, report_to_json and the SVG and ASCII diagrams of
# the paper's four configurations over their standard grids.
PAPER_OUTPUT_DIGESTS = {
    ("A", 10, 3, 6): (
        "6e5995a3cf2e1dd3a806ba79a167720764f4f18b6598d3022bbb5cc2225718a2",
        "3aaef6db4b7055c32511eca8cb5a6536af25c7ba6e39e2c168bd06732b4c362b",
        "b7b6e6af3a2ebc76047a2ee9e5542430653263ceacb5033fd740cc203dbfb487",
        "ecc9a7a289213006e92f5bba4bf57612c6c81b54f14905167b62ef6a2feaf713",
    ),
    ("A", 11, 3, 9): (
        "2bf31c957c38fd5129f0cb5278c779d4581d8223d5fa68abf2d9af59a6cca1f3",
        "0b957bf254a5c8a641a5ca9847775a824fb04b8e37961092a823be4f8ced0f1a",
        "e91c16a6d6e82769d9c84327487d117f77fde55806cbc2db1aeff388949738e9",
        "221df274fa5a663dc8d55f074162fcfd71e05ac0161304132bfb94fa2d6ffbd1",
    ),
    ("D", 6, 1, 5): (
        "101af01714fd9c8f74ebd0cd4ecfec7b92cfe4215ab4160879fdb4faef6ced6e",
        "7f3e596bad3c4d601ca7a04f0c777fdaed374d796e645d0d68f3610ad0df4db3",
        "c4d8d0fcfd429ad006e032633194b9ea710d5e6259d2c7928983a8b10c1812b3",
        "7288b02a6b1f27e5cfa658116c14bfe7eefa299302deda9d63be01b52d505039",
    ),
    ("D", 7, 6, 7): (
        "1dee3f54fc82830ea90fc72582e330a2bd2e7bc8330e772fc58f3691302484b4",
        "dab6e8f9e54893f5a7f2f008de141e863c87d6d09c70368aae0ff85161539ba7",
        "11783c0614abdc599be7e579a826c56942515d9d241e69d7851170f13212fa97",
        "7de599ced741106c4707b89d92873b645dff2e712647f5bdb9dce150c926be1f",
    ),
}


def test_paper_configurations_serialize_byte_identically():
    sizes = []
    for (kind, n, p, q), expected in PAPER_OUTPUT_DIGESTS.items():
        setup = ParabolicSetup(LieType(kind, n), p, q)
        report = sweep(setup, standard_grid(setup))
        sizes.append(len(report.rows))
        bodies = (
            report_to_csv(report),
            report_to_json(report),
            render_diagram(report, "svg"),
            render_diagram(report, "ascii"),
        )
        got = tuple(hashlib.sha256(body.encode()).hexdigest() for body in bodies)
        assert got == expected, (kind, n, p, q)
    assert sizes == [2147, 2417, 1227, 1433]


def test_json_format():
    import json

    setup = ParabolicSetup(D(4), 1, 3)
    values = (sc(0), sc(-1), SIGMA)
    grid = ParameterGrid(z1_values=values, z2_values=values)
    payload = json.loads(report_to_json(sweep(setup, grid)))
    assert payload["setup"] == {"type": "D", "n": 4, "p": 1, "q": 3, "dim_u": 9}
    assert len(payload["rows"]) == 9
    first = payload["rows"][0]
    assert list(first) == [
        "type",
        "n",
        "p",
        "q",
        "z1",
        "z2",
        "gk",
        "dim_u",
        "reducible",
        "criterion",
        "agree",
    ]
    assert isinstance(first["reducible"], bool)
    assert payload["summary"]["points"] == 9


def _small_report(setup=None):
    setup = setup or ParabolicSetup(A(6), 2, 4)
    return sweep(setup, standard_grid(setup))


def test_svg_diagram_structure():
    report = _small_report()
    svg = render_diagram(report, "svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = root.tag[: -len("svg")]
    circles = root.findall(f"{ns}circle")
    reducible_rational = [
        r
        for r in report.rows
        if r.z1.is_rational and r.z2.is_rational and r.verdict.reducible
    ]
    assert len(circles) == len(reducible_rational)
    assert root.findall(f"{ns}line")
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert any("generic-offset points" in t for t in texts)


def test_svg_uses_fixed_lattice_scale():
    report = _small_report()
    svg = render_diagram(report, "svg")
    root = ET.fromstring(svg)
    ns = root.tag[: -len("svg")]
    xs = sorted({float(c.get("cx")) for c in root.findall(f"{ns}circle")})
    reducible_z1 = sorted(
        {
            r.z1.rational
            for r in report.rows
            if r.z1.is_rational and r.z2.is_rational and r.verdict.reducible
        }
    )
    # one lattice unit spans 40 user units
    assert xs[-1] - xs[0] == pytest.approx(
        float((reducible_z1[-1] - reducible_z1[0]) * 40)
    )


def test_ascii_diagram():
    report = _small_report()
    text = render_diagram(report, "ascii")
    assert "R" in text and "·" in text
    assert "generic-offset points" in text


def test_diagram_detects_example_lines():
    setup = ParabolicSetup(A(10), 3, 6)
    report = sweep(setup, standard_grid(setup))
    svg = render_diagram(report, "svg")
    # z1 and z2 coset lines start at -2; anti-diagonal sums start at -5
    assert "lines: z1 in {-2, -1, 0, 1, 2, 3}" in svg
    assert "z2 in {-2, -1, 0, 1, 2, 3}" in svg
    assert "z1+z2 in {-5, -4" in svg


def test_diagram_detects_spin_pair_lines():
    setup = ParabolicSetup(D(7), 6, 7)
    report = sweep(setup, standard_grid(setup))
    svg = render_diagram(report, "svg")
    assert "lines: z1 in {0, 1, 2, 3}" in svg
    assert "z2 in {0, 1, 2, 3}" in svg
    assert "z1+z2 in {-6, -5" in svg
    # the isolated diagonal points from -3 in half steps appear as circles
    marks = {
        (r.z1.rational, r.z2.rational)
        for r in report.rows
        if r.z1.is_rational and r.z2.is_rational and r.verdict.reducible
    }
    assert (Fraction(-3), Fraction(-3)) in marks
    assert (Fraction(-5, 2), Fraction(-5, 2)) in marks
    assert (Fraction(-7, 2), Fraction(-7, 2)) not in marks


# Custom grids: a third step, half steps off the integers, and a unit step.
PICTURE_SPECS = (
    GridSpec(Fraction(-7), Fraction(2), Fraction(1, 3)),
    GridSpec(Fraction(-9, 2), Fraction(5, 2), Fraction(1, 2)),
    GridSpec(Fraction(-6), Fraction(1), Fraction(1)),
)


@pytest.mark.parametrize(
    "setups, specs",
    [
        (family_setups("A", 7), None),
        (family_setups("D", 9), None),
        (family_setups("A", 6), PICTURE_SPECS),
        (family_setups("D", 7), PICTURE_SPECS),
    ],
    ids=["A<=7", "D<=9", "A<=6-custom", "D<=7-custom"],
)
def test_diagram_lines_are_the_half_lines_clipped_to_the_grid(setups, specs):
    """The paper's picture, read off the oracle's rows: the lines a diagram
    draws are the criterion's half-lines clipped to the grid's [lo, hi]
    (the integers c >= b1 for z1 and c >= b2 for z2 in [lo, hi], and
    s >= b12 for z1 + z2 in [2 lo, 2 hi]); every reducible rational point
    lies on one; and both legends print those sets.  ``specs`` None stands
    for the standard grid.  A grid of the standard rationals alone has no
    generic sample, so it draws no line."""
    custom = [(spec, grid_from_spec(spec)) for spec in specs or ()]
    for setup in setups:
        b1, b2, b12 = setup.half_lines
        standard = harness_mod._standard_spec(setup.n)
        axis = tuple(v for v in standard_grid(setup).z1_values if v.is_rational)
        # (spec, grid, whether the grid has generic samples)
        cases = [(s, g, True) for s, g in custom] or [(standard, standard_grid(setup), True)]
        cases.append((standard, ParameterGrid(axis, axis), False))
        for spec, grid, sampled in cases:
            report = sweep(setup, grid)
            lo, hi = spec.lo, spec.hi
            half_lines = (
                list(range(max(b1, ceil(lo)), floor(hi) + 1)),
                list(range(max(b2, ceil(lo)), floor(hi) + 1)),
                list(range(max(b12, ceil(2 * lo)), floor(2 * hi) + 1)),
            )
            expected = half_lines if sampled else ([], [], [])
            lines = harness_mod._picture(report)[2]
            assert lines == expected, (setup, spec, sampled)
            verticals, horizontals, antidiagonals = map(set, half_lines)
            for row in report.rows:
                if row.z1.is_rational and row.z2.is_rational and row.verdict.reducible:
                    z1, z2 = row.z1.rational, row.z2.rational
                    assert z1 in verticals or z2 in horizontals or z1 + z2 in antidiagonals, (
                        setup, spec, z1, z2,
                    )
            sets = ["{" + ", ".join(map(str, line)) + "}" for line in expected]
            legend = "lines: z1 in {}; z2 in {}; z1+z2 in {}".format(*sets)
            assert legend in render_diagram(report, "ascii").splitlines(), (setup, spec)
            assert f">{legend}</text>" in render_diagram(report, "svg"), (setup, spec)


def test_diagram_of_empty_or_unplottable_grid():
    setup = ParabolicSetup(A(5), 1, 3)
    values = (TAU, SIGMA)
    grid = ParameterGrid(z1_values=values, z2_values=values)
    with pytest.raises(UnsupportedGrid):
        render_diagram(sweep(setup, grid), "svg")
    with pytest.raises(UnsupportedGrid):
        render_diagram(_small_report(), "png")
    empty = sweep(setup, ParameterGrid(z1_values=(), z2_values=()))
    for format in ("svg", "ascii"):
        with pytest.raises(UnsupportedGrid):
            render_diagram(empty, format)


def test_csv_scalars_round_trip():
    from gvmred.cli import parse_scalar

    setup = ParabolicSetup(D(4), 1, 4)
    text = report_to_csv(sweep(setup, standard_grid(setup)))
    for line in text.strip().split("\n")[1:]:
        cells = line.split(",")
        for cell in (cells[4], cells[5]):
            assert str(parse_scalar(cell)) == cell
