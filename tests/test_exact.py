from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gvmred import (
    ExactScalar,
    sub_is_integer,
    sum_is_integer,
    symbol,
)
from gvmred.exact import decode_point, form_values, scalars_equal
from gvmred.harness import _standard_spec, grid_from_spec

from conftest import SIGMA, TAU, saturated_form_values, sc, scalar_pairs
from references import decoded_by_fractions


# a small pool of symbol parts so random scalars actually collide; some
# with zero coefficients, or with terms of one name that add up
_GENERIC_POOL = [
    (),
    (("tau", Fraction(1)),),
    (("tau", Fraction(-1)),),
    (("sigma", Fraction(1)),),
    (("tau", Fraction(1, 2)),),
    (("tau", 0), ("sigma", Fraction(0))),
    (("sigma", 1), ("tau", 0)),
    (("tau", 2), ("tau", -1)),
]

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)
# built from an int, a Fraction, pairs and a mapping
scalars = st.one_of(
    st.integers(-8, 8).map(ExactScalar),
    rationals.map(ExactScalar),
    st.builds(ExactScalar, rationals, st.sampled_from(_GENERIC_POOL)),
    st.builds(ExactScalar, rationals, st.sampled_from(_GENERIC_POOL).map(dict)),
)


def test_canonical_form_prunes_zero_coefficients():
    s = ExactScalar(Fraction(1, 2), {"tau": 0})
    assert s.generic == ()
    assert s == sc("1/2")


def test_canonical_form_merges_terms():
    s = ExactScalar(0, [("tau", 1), ("tau", -1), ("sigma", 2)])
    assert s.generic == (("sigma", Fraction(2)),)
    # tau and sigma are the only names, even with a zero coefficient
    for generic in ({"x": 1}, [("tau", 1), ("x", 0)]):
        with pytest.raises(ValueError, match="unknown symbol 'x'"):
            ExactScalar(0, generic)
    with pytest.raises(ValueError, match="unknown symbol 'x'"):
        symbol("x")


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


def test_predicates():
    assert sc(3).is_integer
    assert not sc("3/2").is_integer
    assert not (sc(1) + TAU).is_integer
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
    rebuilt = ExactScalar(a.rational, {"sigma": a.sigma, "tau": a.tau})
    assert rebuilt == a and hash(rebuilt) == hash(a)


@given(scalar_pairs())
def test_integer_tests_match_scalar_arithmetic(pair):
    a, b = pair
    assert scalars_equal(a, b) == (a.rational == b.rational and a.generic == b.generic)
    assert sub_is_integer(a, b) == (a - b).is_integer
    assert sum_is_integer(a, b) == (a + b).is_integer


@given(scalar_pairs())
def test_decoded_fields_match_canonical_form(pair):
    for a in pair:
        assert (a.num, a.den) == (a.rational.numerator, a.rational.denominator)
        # a zero coefficient is the int 0, any other a Fraction
        for name, coeff in (("tau", a.tau), ("sigma", a.sigma)):
            assert type(coeff) is (Fraction if coeff else int)
            assert dict(a.generic).get(name, 0) == coeff
        assert a.is_rational == (a.tau == a.sigma == 0)
        assert ((-a).tau, (-a).sigma) == (-a.tau, -a.sigma)


def test_decoded_points_match_fraction_arithmetic_on_the_verify_grids():
    """At every point of the rank-14 A and rank-43 D standard grids, which
    hold every verify grid's points, ``decode_point`` is the ``Fraction``
    arithmetic reference."""
    points = [pt for n in (14, 43) for pt in grid_from_spec(_standard_spec(n)).points()]
    assert len(points) > 20000
    for z1, z2 in points:
        assert decode_point(z1, z2) == decoded_by_fractions(z1, z2), (z1, z2)


@given(scalar_pairs())
@example((TAU + 2 * SIGMA, -2 * TAU - 4 * SIGMA))
@example((TAU + SIGMA, SIGMA))
@example((SIGMA * Fraction(2, 3), -SIGMA))
def test_decoded_points_match_fraction_arithmetic(pair):
    assert decode_point(*pair) == decoded_by_fractions(*pair)


forms = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any), max_size=6)


@given(scalar_pairs(), forms)
# proportional symbol parts (z2 = -2*z1 + 1/2), cancelled by (2, 1) only,
# with tau alone, sigma alone and both; one symbolic parameter; two
# independent symbols
@example((TAU + sc("1/4"), -2 * TAU + sc("1/2")), [(2, 1), (4, 2), (2, -1), (1, 0)])
@example((SIGMA + sc("1/4"), -2 * SIGMA + sc("1/2")), [(2, 1), (4, 2), (2, -1), (0, 1)])
@example((TAU + 2 * SIGMA, -2 * TAU - 4 * SIGMA + sc("1/2")), [(2, 1), (4, 2), (1, 2), (2, 0)])
@example((sc(3), TAU), [(2, 0), (1, 0), (0, 2), (2, 2)])
@example((TAU, SIGMA), [(2, 0), (2, 2), (0, 2)])
def test_form_values_match_scalar_arithmetic(pair, forms):
    z1, z2 = pair
    expected = []
    for x, y in forms:
        value = (z1 * x + z2 * y) * Fraction(1, 2)
        expected.append(int(value.rational) if value.is_integer else None)
    assert form_values(forms, z1, z2) == tuple(expected)
    # saturated: each int clamped to its window, None kept
    windows = [(-2 - i, 1 + i) for i in range(len(forms))]
    saturated = [v if v is None else min(max(v, lo), hi) for v, (lo, hi) in zip(expected, windows)]
    assert saturated_form_values(forms, windows, z1, z2) == tuple(saturated)
