import random
from fractions import Fraction

import pytest

import dense_gk
from gvmred import (
    ExactScalar,
    IndexOutOfRange,
    InvalidParabolic,
    LieType,
    ParabolicSetup,
    classify_parabolic,
    family_setups,
    shifted_weight,
)
from dense_gk import fundamental_weight, weyl_vector

from conftest import SIGMA, TAU, sc, seq


def test_lie_type_validation():
    with pytest.raises(ValueError):
        LieType("A", 1)
    with pytest.raises(ValueError, match="type D needs n >= 4"):
        LieType("D", 3)
    with pytest.raises(ValueError):
        LieType("B", 4)
    assert LieType("A", 2).simple_root_count == 1
    assert LieType("D", 4).simple_root_count == 4


def test_weyl_vector_values():
    assert weyl_vector(LieType("A", 4)) == seq("3/2", "1/2", "-1/2", "-3/2")
    assert weyl_vector(LieType("D", 6)) == seq(5, 4, 3, 2, 1, 0)
    assert weyl_vector(LieType("A", 2)) == seq("1/2", "-1/2")


def test_fundamental_weight_values():
    a8 = fundamental_weight(LieType("A", 8), 2)
    assert a8 == seq(*(["3/4"] * 2 + ["-1/4"] * 6))
    d6 = fundamental_weight(LieType("D", 6), 5)
    assert d6 == seq(*(["1/2"] * 5 + ["-1/2"]))
    assert fundamental_weight(LieType("D", 6), 6) == seq(*(["1/2"] * 6))
    assert fundamental_weight(LieType("D", 6), 1) == seq(1, 0, 0, 0, 0, 0)


def test_fundamental_weight_range():
    with pytest.raises(IndexOutOfRange):
        fundamental_weight(LieType("A", 8), 8)
    with pytest.raises(IndexOutOfRange):
        fundamental_weight(LieType("D", 6), 7)
    with pytest.raises(IndexOutOfRange):
        fundamental_weight(LieType("A", 8), 0)


def test_shifted_weight_zero_parameters_is_weyl_vector():
    setup = ParabolicSetup(LieType("A", 4), 1, 2)
    assert shifted_weight(setup, 0, 0) == weyl_vector(LieType("A", 4))


def test_shifted_weight_type_d_first_pattern():
    z = TAU
    setup = ParabolicSetup(LieType("D", 6), 1, 5)
    got = shifted_weight(setup, z, z)
    expected = (
        z * Fraction(3, 2) + 5,
        z * Fraction(1, 2) + 4,
        z * Fraction(1, 2) + 3,
        z * Fraction(1, 2) + 2,
        z * Fraction(1, 2) + 1,
        z * Fraction(-1, 2),
    )
    assert got == expected


def test_shifted_weight_type_d_spin_pair():
    z = TAU
    setup = ParabolicSetup(LieType("D", 6), 5, 6)
    got = shifted_weight(setup, z, z)
    assert got == (z + 5, z + 4, z + 3, z + 2, z + 1, sc(0))


def test_classify_parabolic_examples():
    assert classify_parabolic(LieType("A", 8), {2, 5}).step == 2
    assert not classify_parabolic(LieType("A", 8), {2, 5}).maximal
    assert classify_parabolic(LieType("D", 6), {1, 5}).step == 2
    # middle simple roots of D enter the highest root twice
    assert classify_parabolic(LieType("D", 6), {1, 3}).step == 3
    assert classify_parabolic(LieType("A", 8), {2}).maximal
    with pytest.raises(IndexOutOfRange):
        classify_parabolic(LieType("A", 8), {9})
    with pytest.raises(IndexOutOfRange):
        classify_parabolic(LieType("A", 8), set())


def test_setup_rejects_higher_step():
    with pytest.raises(InvalidParabolic) as err:
        ParabolicSetup(LieType("D", 6), 1, 3)
    assert err.value.step == 3 and "is 3-step nilpotent" in str(err.value)
    with pytest.raises(InvalidParabolic, match="need p < q"):
        ParabolicSetup(LieType("A", 5), 3, 3)


def test_singleton_removal_is_maximal_for_valid_setups():
    setup = ParabolicSetup(LieType("D", 7), 1, 6)
    for i in (setup.p, setup.q):
        assert classify_parabolic(setup.lie, {i}).maximal


def test_dim_nilradical_values():
    assert ParabolicSetup(LieType("A", 8), 2, 5).dim_u == 21
    assert ParabolicSetup(LieType("D", 6), 1, 5).dim_u == 20
    s = ParabolicSetup(LieType("A", 5), 2, 3)
    assert s.dim_u == 8 == (s.p + 1) * (s.n - s.p) - 1


def test_adjacent_pair_dimension_identity():
    # q = p+1 makes the general block formula collapse to the adjacent one
    for n in range(3, 31):
        for p in range(1, n - 1):
            q = p + 1
            assert q * (n - q) + p * (q - p) == (p + 1) * (n - p) - 1


def test_shifted_weight_linearity_in_first_parameter():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 9)
        p = rng.randint(1, n - 2)
        q = rng.randint(p + 1, n - 1)
        setup = ParabolicSetup(LieType("A", n), p, q)
        z1 = ExactScalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
        z2 = z1 + TAU if rng.random() < 0.5 else ExactScalar(rng.randint(-5, 5))
        base = shifted_weight(setup, z1, z2)
        bumped = shifted_weight(setup, z1 + 1, z2)
        xi = fundamental_weight(setup.lie, setup.p)
        assert bumped == tuple(a + b for a, b in zip(base, xi))


def test_entry_differences_track_parameters():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(3, 10)
        p = rng.randint(1, n - 2)
        q = rng.randint(p + 1, n - 1)
        setup = ParabolicSetup(LieType("A", n), p, q)
        z1 = ExactScalar(Fraction(rng.randint(-6, 6), 2)) + (
            TAU if rng.random() < 0.5 else sc(0)
        )
        z2 = ExactScalar(Fraction(rng.randint(-6, 6), 3))
        w = shifted_weight(setup, z1, z2)
        assert w[p - 1] - w[p] == z1 + 1
        assert w[q - 1] - w[q] == z2 + 1
        assert w[p - 1] - w[q] == z1 + z2 + 1 + (q - p)


def _roots_and_coweights(kind: str, n: int):
    """The positive roots as integer vectors, e_i - e_j and in type D also
    e_i + e_j (i < j), and the fundamental coweights doubled to integers,
    2(e_1 + ... + e_k), and in type D (1, ..., 1, -1) and (1, ..., 1) for
    k = n - 1 and n; checked dual to the simple roots."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [{i: 1, j: -1} for i, j in pairs]
    simple = [{k: 1, k + 1: -1} for k in range(n - 1)]
    coweights = [[2] * k + [0] * (n - k) for k in range(1, n)]
    if kind == "D":
        roots += [{i: 1, j: 1} for i, j in pairs]
        simple.append({n - 2: 1, n - 1: 1})
        coweights[n - 2 :] = [[1] * (n - 1) + [-1], [1] * n]
    for j, alpha in enumerate(simple):
        pairing = [sum(c * w[i] for i, c in alpha.items()) for w in coweights]
        assert pairing == [2 * (k == j) for k in range(len(simple))], (kind, n)
    return roots, coweights


def test_dim_u_counts_the_positive_roots_of_the_nilradical():
    """For every setup of A<=20 and D<=40, ``dim_u`` is the number of
    positive roots in whose expansion alpha_p or alpha_q has a positive
    coefficient, its pairing with that fundamental coweight."""
    tables = {}
    checked = 0
    for setup in family_setups("A", 20) + family_setups("D", 40):
        kind, n = setup.lie.kind, setup.n
        if (kind, n) not in tables:
            tables[kind, n] = _roots_and_coweights(kind, n)
        roots, coweights = tables[kind, n]
        p, q = coweights[setup.p - 1], coweights[setup.q - 1]
        count = sum(
            1
            for root in roots
            if sum(c * p[i] for i, c in root.items()) > 0
            or sum(c * q[i] for i, c in root.items()) > 0
        )
        assert setup.dim_u == count, setup
        checked += 1
    assert checked == 1140 + 111


def test_setup_derived_quantities():
    s = ParabolicSetup(LieType("A", 11), 3, 9)
    assert s.half_lines == (1 - 3, 1 - 2, 1 - 6 - 2)
    assert s.dim_u == 9 * 2 + 3 * 6


def test_block_plans():
    plan = ParabolicSetup(LieType("A", 5), 1, 3).block_plan
    assert plan.coefficients == ((2, 2), (0, 2), (0, 0))
    assert plan.rho_runs == ((4,), (3, 2), (1, 0))
    plan = ParabolicSetup(LieType("D", 6), 1, 5).block_plan
    assert plan.coefficients == ((2, 1), (0, 1), (0, -1))
    assert plan.rho_runs == ((5,), (4, 3, 2, 1), (0,))
    plan = ParabolicSetup(LieType("D", 6), 5, 6).block_plan
    assert plan.coefficients == ((1, 1), (-1, 1))
    assert plan.rho_runs == ((5, 4, 3, 2, 1), (0,))


def test_block_values_match_shifted_weight():
    """Block b's entries (c1*z1 + c2*z2)/2 + r, for its doubled
    coefficients and rho run, are the dense reference's shifted weight,
    up to a common shift in type A; the package's shifted weight, read off
    the plan, is the dense one exactly."""
    points = (
        (sc("1/3"), sc(-2)),
        (TAU + sc("1/2"), sc(3)),  # tau offsets
        (sc(-4), TAU - 1),
        (sc(-1) + TAU, sc("5/2") - TAU),  # coupled (a+tau, b-tau)
        (TAU, SIGMA),
    )
    for setup in family_setups("A", 9) + family_setups("D", 9):
        plan = setup.block_plan
        for z1, z2 in points:
            entries = [
                (c1 * z1 + c2 * z2) * Fraction(1, 2) + r
                for (c1, c2), run in zip(plan.coefficients, plan.rho_runs)
                for r in run
            ]
            dense = dense_gk.shifted_weight(setup, z1, z2)
            assert len(entries) == len(dense) == setup.n
            # type A blocks hold the gl(n) representative: a common shift
            shift = dense[0] - entries[0] if setup.lie.kind == "A" else 0
            assert all(d - e == shift for d, e in zip(dense, entries)), (setup, z1, z2)
            assert shifted_weight(setup, z1, z2) == dense, (setup, z1, z2)


def test_block_plan_and_gk_key_build_no_scalar(monkeypatch):
    """The setup tables are written from integers: a so(4000) setup's block
    plan and GK key construct no ``ExactScalar``."""
    built = []
    init = ExactScalar.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactScalar, "__init__", counted)
    setup = ParabolicSetup(LieType("D", 2000), 1, 1999)
    assert setup.block_plan.coefficients == ((2, 1), (0, 1), (0, -1))
    assert len(setup.gk_key.forms) == 4
    assert built == []
    shifted_weight(ParabolicSetup(LieType("D", 4), 1, 3), 0, 0)
    assert built  # the patch counts
