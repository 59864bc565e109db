import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_gk
from gvmred import (
    ExactScalar,
    LieType,
    NonIntegralWeight,
    ParabolicSetup,
    WeightVector,
    dim_nilradical,
    family_setups,
    fold_class,
    gk_dimension,
    gk_dimension_of_weight,
    integrality_classes,
    is_integral,
    standard_grid,
    weyl_vector,
)

from conftest import SIGMA, TAU, sc, seq
from dense_gk import gk_dimension_integral

A = lambda n: LieType("A", n)
D = lambda n: LieType("D", n)


def test_classes_type_a_split_by_difference():
    dec = integrality_classes(seq("3/2", 1, "1/2", 0), A(4))
    assert dec.classes == (seq("3/2", "1/2"), seq(1, 0))
    assert dec.other_classes == ()


def test_classes_type_d_sum_relation():
    dec = integrality_classes(seq("1/3", 5, "2/3"), D(4))
    assert dec.integer_class == seq(5)
    assert dec.half_class is None
    assert dec.other_classes == (seq("1/3", "2/3"),)


def test_classes_type_d_half_integers():
    dec = integrality_classes(seq("1/2", "3/2"), D(4))
    assert dec.half_class == seq("1/2", "3/2")
    assert dec.integer_class is None
    assert dec.other_classes == ()


def test_classes_partition_entries_in_order():
    entries = seq("3/2", 1, "1/2", 0, "5/2")
    dec = integrality_classes(entries, A(5))
    flattened = [e for cls in dec.classes for e in cls]
    assert sorted(map(str, flattened)) == sorted(map(str, entries))
    assert dec.classes[0] == seq("3/2", "1/2", "5/2")


def test_fold_class_examples():
    assert fold_class(seq("1/3", "4/3", "2/3")) == seq("1/3", "4/3", "-2/3")
    assert fold_class(seq("1/4")) == seq("1/4")
    assert fold_class(seq("2/3", "1/3", "5/3")) == seq("2/3", "5/3", "-1/3")


def test_fold_class_with_symbols():
    x = (TAU + 5, TAU + 4, -TAU + 1, TAU + 2)
    assert fold_class(x) == (TAU + 5, TAU + 4, TAU + 2, TAU - 1)


def test_fold_class_rejects_unrelated_entries():
    with pytest.raises(ValueError):
        fold_class((TAU, SIGMA))


def test_gk_dominant_integral_type_a_is_zero():
    assert gk_dimension_of_weight(weyl_vector(A(4)), A(4)) == 0


def test_gk_type_d_first_pattern_paper_values():
    for n in range(4, 9):
        setup = ParabolicSetup(D(n), 1, n - 1)
        for z in (0, 1, 2):
            assert gk_dimension(setup, z, z) == 0
        assert gk_dimension(setup, -1, -1) == 4 * n - 10
    for n in (5, 7):
        setup = ParabolicSetup(D(n), 1, n - 1)
        assert gk_dimension(setup, -n + 2, -n + 2) == (n * n + n) // 2 - 1


def test_gk_type_a_generic_and_boundary():
    setup = ParabolicSetup(A(8), 2, 5)
    assert gk_dimension(setup, TAU, TAU) == 21 == dim_nilradical(setup)
    assert gk_dimension(setup, sc("-5/2"), sc("-5/2")) == 21


def test_gk_type_d_spin_pair_generic():
    setup = ParabolicSetup(D(6), 5, 6)
    assert gk_dimension(setup, TAU, TAU) == 20 == dim_nilradical(setup)


def _random_setup(rng):
    if rng.random() < 0.6:
        n = rng.randint(3, 8)
        p = rng.randint(1, n - 2)
        q = rng.randint(p + 1, n - 1)
        return ParabolicSetup(A(n), p, q)
    n = rng.randint(4, 7)
    p, q = rng.choice(((1, n - 1), (1, n), (n - 1, n)))
    return ParabolicSetup(D(n), p, q)


def _random_scalar(rng):
    value = ExactScalar(Fraction(rng.randint(-12, 6), rng.choice((1, 1, 2, 3))))
    roll = rng.random()
    if roll < 0.25:
        return value + TAU
    if roll < 0.35:
        return value - TAU
    if roll < 0.45:
        return value + SIGMA
    return value


def test_monotone_under_parameter_bumps():
    rng = random.Random(2024)
    for _ in range(250):
        setup = _random_setup(rng)
        z1, z2 = _random_scalar(rng), _random_scalar(rng)
        base = gk_dimension(setup, z1, z2)
        assert gk_dimension(setup, z1 + 1, z2) <= base
        assert gk_dimension(setup, z1, z2 + 1) <= base


def test_gk_bounds_and_nilradical_cap():
    rng = random.Random(99)
    for _ in range(300):
        setup = _random_setup(rng)
        n = setup.n
        gk = gk_dimension(setup, _random_scalar(rng), _random_scalar(rng))
        upper = n * (n - 1) // 2 if setup.lie.kind == "A" else n * n - n
        assert 0 <= gk <= upper
        assert gk <= dim_nilradical(setup)


def test_integral_path_agreement():
    rng = random.Random(5)
    for _ in range(200):
        if rng.random() < 0.5:
            lie = A(rng.randint(2, 8))
            offset = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1, 3)))
        else:
            lie = D(rng.randint(4, 8))
            offset = rng.choice((Fraction(0), Fraction(1, 2)))
        entries = tuple(
            ExactScalar(offset + rng.randint(-6, 6)) for _ in range(lie.n)
        )
        weight = WeightVector(entries)
        assert is_integral(weight, lie)
        assert gk_dimension_of_weight(weight, lie) == gk_dimension_integral(weight, lie)


def test_integral_path_rejects_split_weights():
    with pytest.raises(NonIntegralWeight):
        gk_dimension_integral(seq(0, "1/2"), A(2))
    assert not is_integral(seq("1/3", 0, "2/3", 1), D(4))


def test_block_core_matches_dense_route_on_standard_grids():
    checked = 0
    for kind, n_max in (("A", 6), ("D", 7)):
        for setup in family_setups(kind, n_max):
            for z1, z2 in standard_grid(setup).points():
                assert gk_dimension(setup, z1, z2) == dense_gk.gk_dimension(setup, z1, z2), (
                    setup,
                    z1,
                    z2,
                )
                checked += 1
    assert checked > 35000


@st.composite
def setups(draw):
    if draw(st.booleans()):
        n = draw(st.integers(3, 9))
        p = draw(st.integers(1, n - 2))
        q = draw(st.integers(p + 1, n - 1))
        return ParabolicSetup(A(n), p, q)
    n = draw(st.integers(4, 8))
    p, q = draw(st.sampled_from(((1, n - 1), (1, n), (n - 1, n))))
    return ParabolicSetup(D(n), p, q)


rationals = st.builds(
    Fraction, st.integers(-30, 12), st.integers(1, 6)
)
offsets = st.sampled_from((ExactScalar(0), TAU, -TAU, SIGMA, TAU * Fraction(1, 2)))


@st.composite
def parameter_pairs(draw):
    a, b = draw(rationals), draw(rationals)
    if draw(st.booleans()):
        return ExactScalar(a) + TAU, ExactScalar(b) - TAU
    return ExactScalar(a) + draw(offsets), ExactScalar(b) + draw(offsets)


@settings(max_examples=300, deadline=None)
@given(setups(), parameter_pairs())
def test_block_core_matches_dense_route_at_random_points(setup, pair):
    z1, z2 = pair
    assert gk_dimension(setup, z1, z2) == dense_gk.gk_dimension(setup, z1, z2)


dense_entries = st.lists(
    st.builds(lambda r, g: ExactScalar(r) + g, rationals, offsets), min_size=4, max_size=8
)


@settings(max_examples=200, deadline=None)
@given(dense_entries, st.sampled_from("AD"))
def test_dense_adapters_match_dense_route(entries, kind):
    lie = LieType(kind, len(entries))
    dec = integrality_classes(entries, lie)
    classes, integer, half, others = dense_gk.classes(entries, kind)
    assert dec.classes == classes
    if kind == "D":
        assert (dec.integer_class, dec.half_class, dec.other_classes) == (integer, half, others)
        for x in others:
            assert fold_class(x) == dense_gk.fold(x)
    assert gk_dimension_of_weight(entries, lie) == dense_gk.gk_dimension_of_weight(entries, lie)
