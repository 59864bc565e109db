import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

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

from conftest import SIGMA, TAU, sc

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
    grid = ParameterGrid(z1_values=values, z2_values=values, pairing="diagonal")
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
        z1_values=(sc(0),) * len(z2s), z2_values=z2s, pairing="diagonal"
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


def test_diagonal_pairing_needs_equal_lengths():
    with pytest.raises(ValueError):
        ParameterGrid(z1_values=(sc(0),), z2_values=(sc(0), sc(1)), pairing="diagonal")


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


def test_verify_family_fails_when_every_point_raises():
    def broken(setup, z1, z2):
        raise RuntimeError("criterion failed")

    report = verify_family("A", 4, criterion_fn=broken)
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


def test_grid_spec_rejects_nonpositive_step():
    for step in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            GridSpec(lo=Fraction(0), hi=Fraction(1), step=step)


def test_verify_family_detects_corrupted_criterion():
    def flipped(setup, z1, z2):
        value = criterion(setup, z1, z2)
        if z1 == z2 and z1.is_integer:
            return not value
        return value

    report = verify_family("A", 4, criterion_fn=flipped)
    assert not report.ok


def test_sweeps_are_deterministic():
    setup = ParabolicSetup(D(5), 4, 5)
    grid = standard_grid(setup)
    first = sweep(setup, grid)
    second = sweep(setup, grid)
    assert report_to_csv(first) == report_to_csv(second)
    assert report_to_json(first) == report_to_json(second)


def test_parallel_sweep_matches_serial():
    setup = ParabolicSetup(A(5), 2, 4)
    grid = standard_grid(setup)
    serial = sweep(setup, grid, threads=1)
    parallel = sweep(setup, grid, threads=2)
    assert report_to_csv(serial) == report_to_csv(parallel)


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


def test_diagram_of_empty_or_unplottable_grid():
    setup = ParabolicSetup(A(5), 1, 3)
    values = (TAU, SIGMA)
    grid = ParameterGrid(z1_values=values, z2_values=values)
    with pytest.raises(UnsupportedGrid):
        render_diagram(sweep(setup, grid), "svg")
    with pytest.raises(UnsupportedGrid):
        render_diagram(_small_report(), "png")


def test_empty_report_renders_axes_only():
    setup = ParabolicSetup(A(5), 1, 3)
    empty = sweep(setup, ParameterGrid(z1_values=(), z2_values=()))
    svg = render_diagram(empty, "svg")
    root = ET.fromstring(svg)
    ns = root.tag[: -len("svg")]
    assert len(root.findall(f"{ns}line")) == 2
    assert not root.findall(f"{ns}circle")
    assert render_diagram(empty, "ascii") == "(empty sweep)\n"


def test_threads_env_variable_caps_parallelism(monkeypatch):
    setup = ParabolicSetup(A(4), 1, 3)
    grid = standard_grid(setup)
    monkeypatch.setenv("GVM_THREADS", "2")
    via_env = sweep(setup, grid)
    monkeypatch.delenv("GVM_THREADS")
    assert report_to_csv(via_env) == report_to_csv(sweep(setup, grid))


def test_csv_scalars_round_trip():
    from gvmred.cli import parse_scalar

    setup = ParabolicSetup(D(4), 1, 4)
    text = report_to_csv(sweep(setup, standard_grid(setup)))
    for line in text.strip().split("\n")[1:]:
        cells = line.split(",")
        for cell in (cells[4], cells[5]):
            assert str(parse_scalar(cell)) == cell
