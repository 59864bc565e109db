import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gvmred import (
    EqualParameters,
    ExactScalar,
    IndexOutOfRange,
    LieType,
    NonIntegralWeight,
    ParabolicSetup,
    WeightVector,
    WrongLieType,
    criterion,
    criterion_a_diagonal,
    criterion_a_offdiagonal,
    criterion_d,
    evaluate,
    even_odd_counts,
    family_setups,
    fold_class,
    has_maximal_shape,
    integrality_classes,
    minus_double,
    reducible_oracle,
    rs_shape,
    shifted_weight,
    single_weight_reducible,
    standard_grid,
)
from gvmred.exact import sum_int_at_least
from gvmred.verdict import (
    _coerce,
    _half_step_at_least,
    _int_at_least,
    _int_step_at_least,
)

from conftest import SIGMA, TAU, sc, scalar_pairs, scalars

A = lambda n: LieType("A", n)
D = lambda n: LieType("D", n)


def test_oracle_examples_type_a():
    setup = ParabolicSetup(A(8), 2, 5)
    assert reducible_oracle(setup, -2, -2).reducible
    assert not reducible_oracle(setup, sc("-5/2"), sc("-5/2")).reducible


def test_oracle_example_type_d():
    setup = ParabolicSetup(D(6), 1, 5)
    assert reducible_oracle(setup, sc(0), TAU).reducible


def test_verdict_invariants():
    setup = ParabolicSetup(A(8), 2, 5)
    v = evaluate(setup, -2, -2)
    assert v.reducible == (v.gk < v.dim_u)
    assert v.gk <= v.dim_u
    assert v.agree == (v.reducible == v.criterion)


def test_criterion_a_diagonal_examples():
    setup = ParabolicSetup(A(8), 2, 5)
    assert criterion_a_diagonal(setup, sc("-3/2"))
    assert not criterion_a_diagonal(setup, sc(-3))
    assert not criterion_a_diagonal(setup, sc("-5/2"))
    assert criterion_a_diagonal(setup, sc(-2))
    small = ParabolicSetup(A(4), 1, 3)
    assert criterion_a_diagonal(small, sc(-1))
    assert not criterion_a_diagonal(small, sc(-2))
    assert not criterion_a_diagonal(setup, TAU)
    with pytest.raises(WrongLieType):
        criterion_a_diagonal(ParabolicSetup(D(6), 1, 5), sc(0))


def test_criterion_a_offdiagonal_examples():
    sl10 = ParabolicSetup(A(10), 3, 6)
    assert criterion_a_offdiagonal(sl10, sc(5), sc(-2))
    assert not criterion_a_offdiagonal(sl10, TAU, SIGMA)
    sl11 = ParabolicSetup(A(11), 3, 9)
    assert criterion_a_offdiagonal(sl11, sc(-3), sc(-4))
    with pytest.raises(EqualParameters):
        criterion_a_offdiagonal(sl10, TAU, TAU)
    with pytest.raises(WrongLieType):
        criterion_a_offdiagonal(ParabolicSetup(D(6), 1, 5), sc(0), sc(1))


def test_criterion_d_examples():
    so12 = ParabolicSetup(D(6), 1, 5)
    assert criterion_d(so12, sc("-3/2"), sc("-3/2"))
    so14 = ParabolicSetup(D(7), 6, 7)
    assert criterion_d(so14, sc(-3), sc(-3))
    assert not criterion_d(so14, sc(-4) + TAU, sc(-3) - TAU)
    assert criterion_d(so14, sc(-3) + TAU, sc(-3) - TAU)
    with pytest.raises(WrongLieType):
        criterion_d(ParabolicSetup(A(8), 2, 5), sc(0), sc(0))


def test_criterion_dispatch_splits_on_structural_equality():
    setup = ParabolicSetup(A(8), 2, 5)
    # equal generic parameters take the diagonal branch and stay finite
    assert criterion(setup, TAU, TAU) is False
    assert criterion(setup, TAU, SIGMA) is False
    assert criterion(setup, sc(0), sc(0)) is True


def test_single_weight_reducible_examples():
    assert single_weight_reducible(8, 2, sc(-1))
    assert not single_weight_reducible(8, 2, sc("-3/2"))
    assert not single_weight_reducible(4, 2, sc(-2))
    assert single_weight_reducible(4, 2, sc(-1))
    with pytest.raises(IndexOutOfRange):
        single_weight_reducible(8, 8, sc(0))


def test_has_maximal_shape_examples():
    small = ParabolicSetup(A(4), 1, 2)
    assert not has_maximal_shape(small, shifted_weight(small, 0, 0))
    mid = ParabolicSetup(A(5), 2, 3)
    assert has_maximal_shape(mid, shifted_weight(mid, -2, -2))
    big = ParabolicSetup(A(8), 2, 5)
    assert not has_maximal_shape(big, shifted_weight(big, 0, 0))
    with pytest.raises(NonIntegralWeight):
        has_maximal_shape(big, shifted_weight(big, sc("-5/2"), sc("-5/2")))
    with pytest.raises(WrongLieType):
        has_maximal_shape(ParabolicSetup(D(6), 1, 5), WeightVector(()))


def test_coset_base_forms_coincide_when_tail_empty():
    # the two printed forms of the tail-empty coset base agree when q = n,
    # so the consolidated and case-split routes cannot drift apart there
    for n in range(3, 12):
        q = n
        for p in range(1, n):
            assert min(p, n - p) == min(p, q - p)


def criterion_a_offdiagonal_cases(setup: ParabolicSetup, z1, z2) -> bool:
    """Type A for z1 != z2, following the fine case split on integrality.

    Kept as an independent second route; sweeps assert it agrees with the
    consolidated form everywhere.
    """
    if setup.lie.kind != "A":
        raise WrongLieType("off-diagonal type A criterion needs a type A setup")
    z1, z2 = _coerce(z1), _coerce(z2)
    if z1 == z2:
        raise EqualParameters("off-diagonal criterion needs z1 != z2")
    n, p = setup.n, setup.p
    gap, lo = setup.middle, setup.outer_min
    tail = n - setup.q
    if tail == 0:
        return _int_at_least(z1, 1 - min(p, n - p))
    i1, i2 = z1.is_integer, z2.is_integer
    if not i1 and not i2:
        return _int_at_least(z1 + z2, -gap - lo + 1)
    if not i1:
        return _int_at_least(z2, 1 - min(gap, tail))
    if not i2:
        return _int_at_least(z1, 1 - min(p, gap))
    if z1.rational >= 0 or z2.rational >= 0:
        return True
    return (
        z1.rational + z2.rational > -gap - lo
        or z1.rational > -min(gap, p)
        or z2.rational > -min(gap, tail)
    )


def test_offdiagonal_routes_agree_on_grids():
    for lie_n, p, q in ((6, 2, 4), (7, 1, 6), (7, 3, 4), (8, 2, 5), (6, 1, 5)):
        setup = ParabolicSetup(A(lie_n), p, q)
        for z1, z2 in standard_grid(setup).points():
            if z1 == z2:
                continue
            assert criterion_a_offdiagonal(setup, z1, z2) == criterion_a_offdiagonal_cases(
                setup, z1, z2
            ), (setup, str(z1), str(z2))


def test_criterion_matches_oracle_on_small_grids():
    setups = [
        ParabolicSetup(A(5), 1, 3),
        ParabolicSetup(A(6), 2, 5),
        ParabolicSetup(D(5), 1, 4),
        ParabolicSetup(D(5), 4, 5),
    ]
    for setup in setups:
        for z1, z2 in standard_grid(setup).points():
            v = evaluate(setup, z1, z2)
            assert v.agree, (setup, str(z1), str(z2), v)


small_setups = st.sampled_from(family_setups("A", 6) + family_setups("D", 6))
offset_parameters = st.builds(
    lambda r, name, c: ExactScalar(r, {name: c}),
    st.fractions(min_value=-9, max_value=4, max_denominator=4),
    st.sampled_from(("tau", "sigma")),
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))),
)


def _swap_symbols(z: ExactScalar) -> ExactScalar:
    swapped = {"tau": "sigma", "sigma": "tau"}
    return ExactScalar(z.rational, {swapped[name]: c for name, c in z.generic})


@settings(max_examples=200, deadline=None)
@given(small_setups, offset_parameters, offset_parameters)
def test_verdict_invariant_under_symbol_renaming(setup, z1, z2):
    assert evaluate(setup, z1, z2) == evaluate(setup, _swap_symbols(z1), _swap_symbols(z2))


def test_upward_closure_of_reducibility():
    rng = random.Random(17)
    setups = [
        ParabolicSetup(A(7), 2, 5),
        ParabolicSetup(A(6), 1, 5),
        ParabolicSetup(D(6), 1, 6),
        ParabolicSetup(D(7), 6, 7),
    ]
    for _ in range(120):
        setup = rng.choice(setups)
        z1 = ExactScalar(Fraction(rng.randint(-16, 4), rng.choice((1, 2))))
        z2 = ExactScalar(Fraction(rng.randint(-16, 4), rng.choice((1, 2))))
        if rng.random() < 0.3:
            z1 += TAU
        if criterion(setup, z1, z2):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            assert criterion(setup, z1 + a, z2 + b)
            assert reducible_oracle(setup, z1 + a, z2 + b).reducible


def irreducible_shape_diagnostic(setup: ParabolicSetup, z1, z2) -> bool:
    """Type D shape witness for irreducibility (diagnostic only).

    True when some labeled class x has even-box row counts of its doubled
    sequence equal to (2, 1, ..., 1) or (1, 1, ..., 1), or some unlabeled
    class folds to a tableau of shape (2, 1^(n-2)) or (1^(n-1)).  Checked
    one-directionally against the oracle: irreducible implies a witness.
    """
    if setup.lie.kind != "D":
        raise WrongLieType("the shape diagnostic is for type D")
    n = setup.n
    targets = ((2,) + (1,) * (n - 2), (1,) * (n - 1))
    dec = integrality_classes(tuple(shifted_weight(setup, z1, z2)), setup.lie)
    for labeled in (dec.integer_class, dec.half_class):
        if labeled:
            ev, _ = even_odd_counts(rs_shape(minus_double(labeled)))
            while ev and ev[-1] == 0:
                ev = ev[:-1]
            if ev in targets:
                return True
    for other in dec.other_classes:
        if rs_shape(fold_class(other)) in targets:
            return True
    return False


def test_shape_diagnostic_catches_every_irreducible_point():
    for n, p, q in ((4, 1, 3), (5, 1, 5), (5, 4, 5), (6, 1, 5)):
        setup = ParabolicSetup(D(n), p, q)
        for z1, z2 in standard_grid(setup).points():
            v = reducible_oracle(setup, z1, z2)
            if not v.reducible:
                assert irreducible_shape_diagnostic(setup, z1, z2), (
                    setup,
                    str(z1),
                    str(z2),
                )
    with pytest.raises(WrongLieType):
        irreducible_shape_diagnostic(ParabolicSetup(A(8), 2, 5), sc(0), sc(0))


# The coset tests read integers; these are their ExactScalar/Fraction forms.


def _fraction_int_at_least(z: ExactScalar, bound) -> bool:
    return z.is_integer and z.rational >= bound


def _fraction_half_step_at_least(z: ExactScalar, bound: Fraction) -> bool:
    return not z.generic and (2 * (z.rational - bound)).denominator == 1 and z.rational >= bound


def _fraction_int_step_at_least(z: ExactScalar, bound: Fraction) -> bool:
    return not z.generic and (z.rational - bound).denominator == 1 and z.rational >= bound


bounds = st.integers(-14, 4)


@settings(max_examples=300, deadline=None)
@given(scalar_pairs(), bounds)
def test_sum_test_matches_scalar_sum(pair, bound):
    z1, z2 = pair
    assert sum_int_at_least(z1, z2, bound) == _fraction_int_at_least(z1 + z2, bound)


@settings(max_examples=300, deadline=None)
@given(scalars, bounds)
def test_coset_predicates_match_fraction_forms(z, twice_bound):
    half = Fraction(twice_bound, 2)
    assert _int_at_least(z, twice_bound) == _fraction_int_at_least(z, twice_bound)
    assert _half_step_at_least(z, twice_bound) == _fraction_half_step_at_least(z, half)
    assert _int_step_at_least(z, twice_bound) == _fraction_int_step_at_least(z, half)


@settings(max_examples=300, deadline=None)
@given(small_setups, scalar_pairs())
def test_criterion_matches_oracle_at_random_points(setup, pair):
    z1, z2 = pair
    v = evaluate(setup, z1, z2)
    assert v.agree, (setup, str(z1), str(z2), v)
