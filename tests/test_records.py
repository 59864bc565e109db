"""Value semantics of the record classes: equality, hashing, repr,
read-only fields and constructor signatures.  Their validation is
tested with each class."""

from fractions import Fraction

import pytest

from gvmred import (
    GridSpec,
    LieType,
    MismatchReport,
    ParabolicSetup,
    ParameterGrid,
    SweepReport,
)

from conftest import TAU, sc, seq


def _pairs():
    """(a, b, c) per record class: a == b, a != c."""
    a5, d6 = LieType("A", 5), LieType("D", 6)
    axis = seq(0, "1/2")
    return [
        (LieType("A", 5), LieType("A", 5), LieType("A", 6)),
        (ParabolicSetup(a5, 1, 3), ParabolicSetup(LieType("A", 5), 1, 3), ParabolicSetup(a5, 2, 3)),
        (ParabolicSetup(d6, 1, 5), ParabolicSetup(d6, 1, 5), ParabolicSetup(LieType("A", 6), 1, 5)),
        (
            GridSpec(Fraction(-2), Fraction(3)),
            GridSpec(Fraction(-2), Fraction(3), Fraction(1, 2)),
            GridSpec(Fraction(-2), Fraction(3), Fraction(1)),
        ),
        (
            ParameterGrid(axis, axis),
            ParameterGrid(seq(0, "1/2"), seq(0, "1/2"), ()),
            ParameterGrid(axis, axis, ((TAU, TAU),)),
        ),
    ]


@pytest.mark.parametrize("a, b, c", _pairs(), ids=lambda r: type(r).__name__)
def test_equality_and_hash(a, b, c):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a != (a,) and (a == object()) is False


def test_repr_lists_fields():
    assert repr(LieType("A", 5)) == "LieType(kind='A', n=5)"
    assert repr(ParabolicSetup(LieType("D", 4), 1, 3)) == (
        "ParabolicSetup(lie=LieType(kind='D', n=4), p=1, q=3)"
    )
    assert repr(GridSpec(Fraction(-1), Fraction(1))) == (
        "GridSpec(lo=Fraction(-1, 1), hi=Fraction(1, 1), step=Fraction(1, 2))"
    )
    report = MismatchReport(
        mismatches=[], setups_checked=0, points_checked=0, errors=[], grid_points=0
    )
    assert repr(report) == (
        "MismatchReport(mismatches=[], setups_checked=0, points_checked=0, "
        "errors=[], grid_points=0)"
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (LieType("A", 5), "n"),
        (ParabolicSetup(LieType("A", 5), 1, 3), "p"),
        (GridSpec(Fraction(0), Fraction(1)), "step"),
        (ParameterGrid(seq(0), seq(0)), "extra_points"),
    ],
    ids=lambda r: type(r).__name__ if not isinstance(r, str) else r,
)
def test_frozen_fields_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unlisted = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_cached_properties_work_on_frozen_records():
    setup = ParabolicSetup(LieType("A", 6), 2, 4)
    assert setup.dim_u == 4 * 2 + 2 * 2 == setup.dim_u
    assert setup.block_plan is setup.block_plan
    grid = ParameterGrid(seq(0, 1), seq(0, 1), ((sc(0), sc(0)),))
    assert grid.points() is grid.points() and len(grid) == 4


def test_keyword_construction():
    lie = LieType(kind="D", n=5)
    assert ParabolicSetup(lie=lie, p=1, q=4) == ParabolicSetup(lie, 1, 4)
    assert GridSpec(lo=Fraction(0), hi=Fraction(1)).step == Fraction(1, 2)
    report = MismatchReport([], 1, 2, [], grid_points=2)
    assert (report.setups_checked, report.points_checked, report.grid_points) == (1, 2, 2)


def test_mutable_reports_are_unhashable():
    with pytest.raises(TypeError):
        hash(MismatchReport([], 0, 0, [], 0))
    setup = ParabolicSetup(LieType("A", 3), 1, 2)
    with pytest.raises(TypeError):
        hash(SweepReport(setup, [], []))
