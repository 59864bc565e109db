import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_gk
from gvmred import (
    ExactScalar,
    IndexOutOfRange,
    LieType,
    ParabolicSetup,
    ParameterGrid,
    criterion,
    evaluate,
    family_setups,
    integrality_classes,
    rs_shape,
    shifted_weight,
    standard_grid,
    sweep,
)
from gvmred.exact import form_values
from gvmred.verdict import _coerce

from conftest import SIGMA, TAU, sc, scalar_pairs, scalars
from dense_gk import NonIntegralWeight
from references import (
    WrongLieType,
    criterion_values,
    even_odd_counts,
    has_maximal_shape,
    int_at_least,
    minus_double,
    single_weight_reducible,
    sum_int_at_least,
)

A = lambda n: LieType("A", n)
D = lambda n: LieType("D", n)


def test_oracle_examples_type_a():
    setup = ParabolicSetup(A(8), 2, 5)
    assert evaluate(setup, -2, -2).reducible
    assert not evaluate(setup, sc("-5/2"), sc("-5/2")).reducible


def test_oracle_example_type_d():
    setup = ParabolicSetup(D(6), 1, 5)
    assert evaluate(setup, sc(0), TAU).reducible


def test_verdict_invariants():
    setup = ParabolicSetup(A(8), 2, 5)
    v = evaluate(setup, -2, -2)
    assert v.reducible == (v.gk < v.dim_u)
    assert v.gk <= v.dim_u
    assert v.agree == (v.reducible == v.criterion)


def test_criterion_a_diagonal_examples():
    setup = ParabolicSetup(A(8), 2, 5)
    assert criterion(setup, sc("-3/2"), sc("-3/2"))
    assert not criterion(setup, sc(-3), sc(-3))
    assert not criterion(setup, sc("-5/2"), sc("-5/2"))
    assert criterion(setup, sc(-2), sc(-2))
    small = ParabolicSetup(A(4), 1, 3)
    assert criterion(small, sc(-1), sc(-1))
    assert not criterion(small, sc(-2), sc(-2))
    assert not criterion(setup, TAU, TAU)


def test_criterion_a_offdiagonal_examples():
    sl10 = ParabolicSetup(A(10), 3, 6)
    assert criterion(sl10, sc(5), sc(-2))
    assert not criterion(sl10, TAU, SIGMA)
    sl11 = ParabolicSetup(A(11), 3, 9)
    assert criterion(sl11, sc(-3), sc(-4))


def test_criterion_d_examples():
    so12 = ParabolicSetup(D(6), 1, 5)
    assert criterion(so12, sc("-3/2"), sc("-3/2"))
    so14 = ParabolicSetup(D(7), 6, 7)
    assert criterion(so14, sc(-3), sc(-3))
    assert not criterion(so14, sc(-4) + TAU, sc(-3) - TAU)
    assert criterion(so14, sc(-3) + TAU, sc(-3) - TAU)


def test_criterion_on_equal_and_distinct_generic_parameters():
    setup = ParabolicSetup(A(8), 2, 5)
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
        has_maximal_shape(ParabolicSetup(D(6), 1, 5), ())


def test_type_a_setups_have_nonempty_outer_blocks():
    # the consolidated type A form needs p >= 1 and n - q >= 1
    for n in range(3, 13):
        for k in range(1, n):
            with pytest.raises(ValueError):
                ParabolicSetup(A(n), k, n)
            with pytest.raises(ValueError):
                ParabolicSetup(A(n), 0, k)


def criterion_a_offdiagonal_cases(setup: ParabolicSetup, z1, z2) -> bool:
    """Type A following the fine case split on integrality.

    Kept as an independent second route; sweeps assert it agrees with the
    consolidated form everywhere, the diagonal z1 = z2 included.
    """
    if setup.lie.kind != "A":
        raise WrongLieType("type A criterion needs a type A setup")
    z1, z2 = _coerce(z1), _coerce(z2)
    p, gap, tail = setup.p, setup.q - setup.p, setup.n - setup.q
    lo = min(p, tail)
    i1, i2 = z1.is_integer, z2.is_integer
    if not i1 and not i2:
        return int_at_least(z1 + z2, -gap - lo + 1)
    if not i1:
        return int_at_least(z2, 1 - min(gap, tail))
    if not i2:
        return int_at_least(z1, 1 - min(p, gap))
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
            assert criterion(setup, z1, z2) == criterion_a_offdiagonal_cases(setup, z1, z2), (
                setup,
                str(z1),
                str(z2),
            )


def criterion_a_diagonal_cases(setup: ParabolicSetup, z: ExactScalar) -> bool:
    """The paper's type A case tree on the diagonal z1 = z2 = z."""
    gap = setup.q - setup.p
    lo, hi = min(setup.p, setup.n - setup.q), max(setup.p, setup.n - setup.q)
    if z.is_integer:
        if lo >= gap - 1:
            half_lo = (lo + 1) // 2 if gap % 2 == 0 else lo // 2
            first = -half_lo - (gap - 1) // 2
        elif lo > 0:
            first = -max((gap + lo + 1) // 2, hi) + 1 if hi < gap else -gap + 1
        else:
            first = -min(hi, gap) + 1
        return z.num >= first
    # non-integral: reducible only for half-integers past the open boundary
    if lo < 1 or not z.is_rational or z.den != 2:
        return False
    return z.num > -(gap + lo)


def type_d_diagonal_conditions(setup: ParabolicSetup, z: ExactScalar) -> bool:
    """The paper's type D diagonal branches at z1 = z2 = z; each is a
    sufficient condition for reducibility."""
    n = setup.n
    if setup.p == 1:
        # z non-integral in (-n)//2 + 3/2 + Z>=0
        return not z.is_integer and _fraction_int_step_at_least(
            z, Fraction(2 * ((-n) // 2) + 3, 2)
        )
    # z in (-n+1)/2 (odd n) or (-n+2)/2 (even n) + (1/2)Z>=0
    return _fraction_half_step_at_least(z, Fraction(-n + 1 if n % 2 else -n + 2, 2))


def diagonal_values(n: int) -> list:
    """k/d for d in 1..4 with k/d in [-2(n+3), 4), then tau and 1/2 + tau."""
    values = sorted({Fraction(k, d) for d in (1, 2, 3, 4) for k in range(-2 * (n + 3) * d, 4 * d)})
    return [sc(v) for v in values] + [TAU, sc("1/2") + TAU]


def test_diagonal_case_tree_matches_criterion():
    for setup in family_setups("A", 12):
        for z in diagonal_values(setup.n):
            assert criterion(setup, z, z) == criterion_a_diagonal_cases(setup, z), (
                setup,
                str(z),
            )


def test_type_d_diagonal_conditions_imply_criterion():
    for setup in family_setups("D", 20):
        for z in diagonal_values(setup.n):
            if type_d_diagonal_conditions(setup, z):
                assert criterion(setup, z, z), (setup, str(z))


def criterion_d_with_gate(setup: ParabolicSetup, z1: ExactScalar, z2: ExactScalar) -> bool:
    """The earlier type D form: for p = 1 it tried the z1 + z2 half-line
    only when both parameters were non-integral or z1 = -1."""
    n = setup.n
    odd = n % 2 == 1
    if setup.p == 1:
        # q = n-1 or n
        if int_at_least(z1, 0):
            return True
        z1_int = z1.is_integer
        if (not z1_int and not z2.is_integer) or (z1_int and z1.num == -1):
            if sum_int_at_least(z1, z2, -n + 2):
                return True
        return int_at_least(z2, -n + 3 if odd else -n + 4)
    # p = n-1, q = n
    return (
        int_at_least(z1, 0)
        or int_at_least(z2, 0)
        or sum_int_at_least(z1, z2, -n + 1 if odd else -n + 2)
    )


def gate_points(n: int) -> list:
    """Pairs of rationals k/d (d = 1, 2, 3) in [-(n+2), 3); then a + tau,
    for each integer a, against each integer and each coupled b - tau."""
    values = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-(n + 2) * d, 3 * d)})
    rationals = [sc(v) for v in values]
    integers = [z for z in rationals if z.den == 1]
    up, down = [z + TAU for z in integers], [z - TAU for z in rationals]
    return [(a, b) for a in rationals for b in rationals] + [
        (a, b) for a in up for b in down + integers
    ]


def test_type_d_gate_never_changed_the_answer():
    # a skipped sum test had z1 an integer <= -2, so z1 + z2 in Z>=2-n put
    # z2 in Z>=4-n, where the z2 half-line fires
    points = {}
    for setup in family_setups("D", 20):
        if setup.n not in points:
            points[setup.n] = gate_points(setup.n)
        for z1, z2 in points[setup.n]:
            assert criterion(setup, z1, z2) == criterion_d_with_gate(setup, z1, z2), (
                setup,
                str(z1),
                str(z2),
            )


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
            assert evaluate(setup, z1 + a, z2 + b).reducible


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
        if rs_shape(dense_gk.fold(other)) in targets:
            return True
    return False


def test_shape_diagnostic_catches_every_irreducible_point():
    for n, p, q in ((4, 1, 3), (5, 1, 5), (5, 4, 5), (6, 1, 5)):
        setup = ParabolicSetup(D(n), p, q)
        report = sweep(setup, standard_grid(setup))
        assert not report.errors
        for row in report.rows:
            if not row.verdict.reducible:
                assert irreducible_shape_diagnostic(setup, row.z1, row.z2), (
                    setup,
                    str(row.z1),
                    str(row.z2),
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
def test_coset_predicates_match_fraction_forms(z, bound):
    assert int_at_least(z, bound) == _fraction_int_at_least(z, bound)


@settings(max_examples=300, deadline=None)
@given(small_setups, scalar_pairs())
def test_criterion_matches_oracle_at_random_points(setup, pair):
    z1, z2 = pair
    v = evaluate(setup, z1, z2)
    assert v.agree, (setup, str(z1), str(z2), v)


def _fraction_integer(z: ExactScalar) -> int | None:
    return int(z.rational) if not z.generic and z.rational.denominator == 1 else None


@settings(max_examples=300, deadline=None)
@given(small_setups, st.lists(scalar_pairs(), min_size=1, max_size=8))
# coupled points (a+tau, b-tau): an integral sum of non-integral parameters
@example(
    ParabolicSetup(D(6), 5, 6),
    [(sc(-3) + TAU, sc(-2) - TAU), (sc(-4) + TAU, sc(-3) - TAU), (TAU, -TAU)],
)
@example(
    ParabolicSetup(A(6), 2, 4),
    [(sc("-5/2") + TAU, sc("1/2") - TAU), (sc(-1) + TAU, sc(-9) - TAU), (sc(0), sc(0))],
)
def test_criterion_column_matches_scalar_arithmetic(setup, pairs):
    """A grid's form values over the criterion's forms in
    ``gk_key.half_lines``, (2, 0), (0, 2) and (2, 2), are z1, z2 and
    z1 + z2 as ints where the scalars, summed by ExactScalar arithmetic, are
    integers, and the reference ``criterion_values``; the half-line test on
    them is the sweep's criterion and the one-point criterion at each
    point."""
    grid = ParameterGrid((), (), tuple(pairs))
    key = setup.gk_key
    assert [key.forms[i] for i, _ in key.half_lines] == [(2, 0), (0, 2), (2, 2)]
    assert tuple(b for _, b in key.half_lines) == setup.half_lines
    values = list(zip(*(grid.form_column(key.forms[i]) for i, _ in key.half_lines)))
    assert values == criterion_values(grid.points())
    rows = sweep(setup, grid).rows
    assert len(values) == len(rows) == len(grid)
    b1, b2, b12 = setup.half_lines
    for (z1, z2), triple, row in zip(grid.points(), values, rows):
        assert triple == tuple(map(_fraction_integer, (z1, z2, z1 + z2)))
        a, b, total = triple
        half_lines = (
            (a is not None and a >= b1)
            or (b is not None and b >= b2)
            or (total is not None and total >= b12)
        )
        assert row.verdict.criterion is criterion(setup, z1, z2) is half_lines, (
            setup, str(z1), str(z2),
        )


@settings(max_examples=300, deadline=None)
@given(scalar_pairs())
def test_criterion_forms_read_the_scalar_sums_at_random_points(pair):
    """The form values over (2, 0), (0, 2) and (2, 2) are z1, z2 and
    z1 + z2 as ints where they are integers, as the reference
    ``criterion_values`` reads them off the scalars' fields and as
    ExactScalar arithmetic finds them."""
    z1, z2 = pair
    triple = form_values(((2, 0), (0, 2), (2, 2)), z1, z2)
    assert triple == criterion_values([pair])[0], (str(z1), str(z2))
    assert triple == tuple(map(_fraction_integer, (z1, z2, z1 + z2))), (str(z1), str(z2))
