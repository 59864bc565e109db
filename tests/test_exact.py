from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gvmred import (
    CosetClass,
    ExactScalar,
    IncomparableScalars,
    compare,
    coset_class,
    sub_is_integer,
    sum_is_integer,
    symbol,
)

from conftest import SIGMA, TAU, sc


# a small pool of symbol parts so random scalars actually collide
_GENERIC_POOL = [
    (),
    (("tau", Fraction(1)),),
    (("tau", Fraction(-1)),),
    (("sigma", Fraction(1)),),
    (("tau", Fraction(1, 2)),),
]

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)
scalars = st.builds(
    ExactScalar, rationals, st.sampled_from(_GENERIC_POOL)
)


def test_canonical_form_prunes_zero_coefficients():
    s = ExactScalar(Fraction(1, 2), {"tau": 0})
    assert s.generic == ()
    assert s == sc("1/2")


def test_canonical_form_merges_terms():
    s = ExactScalar(0, [("tau", 1), ("tau", -1), ("sigma", 2)])
    assert s.generic == (("sigma", Fraction(2)),)


def test_arithmetic_and_negation():
    a = sc("3/2") + TAU
    assert a - TAU == sc("3/2")
    assert -(a) == ExactScalar(Fraction(-3, 2), {"tau": -1})
    assert a * Fraction(2) == ExactScalar(3, {"tau": 2})
    assert 2 * TAU == ExactScalar(0, {"tau": 2})


def test_sub_is_integer_examples():
    assert sub_is_integer(sc("3/2"), sc("1/2"))
    assert not sub_is_integer(sc("1/3"), sc(0))
    # identical symbol parts compare by rational difference only
    assert sub_is_integer(sc("3/2") + TAU, sc("1/2") + TAU)
    assert not sub_is_integer(sc("1/2") + TAU, TAU)
    assert not sub_is_integer(sc("1/2") + TAU, sc("1/2"))


def test_sum_is_integer_examples():
    assert sum_is_integer(sc("1/3"), sc("2/3"))
    assert sum_is_integer(TAU, sc(2) - TAU)
    assert not sum_is_integer(sc("1/2"), sc("1/4"))


def test_coset_class_examples():
    assert coset_class(sc(5)) is CosetClass.INTEGER
    assert coset_class(sc("-7/2")) is CosetClass.HALF_INTEGER
    assert coset_class(sc("1/3") + TAU) is CosetClass.OTHER
    assert coset_class(sc("1/3")) is CosetClass.OTHER


def test_compare_examples():
    assert compare(sc("3/2"), sc("1/2")) == 1
    assert compare(TAU + 1, TAU + 1) == 0
    with pytest.raises(IncomparableScalars):
        compare(TAU, SIGMA)


def test_rich_comparisons_follow_compare():
    assert sc("1/2") < sc(1)
    assert TAU + 1 >= TAU
    with pytest.raises(IncomparableScalars):
        _ = TAU < SIGMA


def test_predicates():
    assert sc(3).is_integer
    assert not sc("3/2").is_integer
    assert sc("3/2").is_half_integer
    assert not (sc(1) + TAU).is_integer
    assert not (sc("1/2") + TAU).is_half_integer
    assert TAU.generic == (("tau", Fraction(1)),)


@given(scalars)
def test_sub_is_integer_reflexive(a):
    assert sub_is_integer(a, a)


@given(scalars, scalars)
def test_sub_is_integer_symmetric(a, b):
    assert sub_is_integer(a, b) == sub_is_integer(b, a)


@given(scalars, scalars, scalars)
def test_sub_is_integer_transitive(a, b, c):
    if sub_is_integer(a, b) and sub_is_integer(b, c):
        assert sub_is_integer(a, c)


@given(scalars, scalars, scalars)
def test_type_d_relation_transitive(a, b, c):
    def related(x, y):
        return sub_is_integer(x, y) or sum_is_integer(x, y)

    if related(a, b) and related(b, c):
        assert related(a, c)


@given(scalars, scalars)
def test_negation_swaps_sum_and_difference(a, b):
    assert sub_is_integer(a, -b) == sum_is_integer(a, b)
    assert sum_is_integer(a, -b) == sub_is_integer(a, b)


@given(rationals, rationals, st.sampled_from(_GENERIC_POOL))
def test_compare_totally_orders_common_fibers(x, y, gen):
    a = ExactScalar(x, gen)
    b = ExactScalar(y, gen)
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == 0) == (a == b)


def test_str_is_canonical():
    assert str(sc("-5/2")) == "-5/2"
    assert str(sc(0)) == "0"
    assert str(TAU) == "tau"
    assert str(-TAU) == "-tau"
    assert str(sc(2) - TAU) == "2-tau"
    assert str(sc("1/3") + ExactScalar(0, {"tau": Fraction(3, 2)})) == "1/3+3/2*tau"


def test_rational_scalar_hashes_like_its_value():
    assert ExactScalar(2) == 2 and hash(ExactScalar(2)) == hash(2)
    assert hash(sc("-5/2")) == hash(Fraction(-5, 2))
    assert len({ExactScalar(2), 2}) == 1
    assert {Fraction(1, 3): "x"}[sc("1/3")] == "x"


@given(scalars, scalars)
def test_equal_scalars_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    if a.is_rational:
        assert a == a.rational and hash(a) == hash(a.rational)
