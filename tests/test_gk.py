import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_gk
import gvmred.gk as gk_module
import gvmred.tableaux as tableaux_module
import gvmred.verdict as verdict_module
from gvmred import (
    ExactScalar,
    LieType,
    ParabolicSetup,
    ParameterGrid,
    family_setups,
    gk_dimension,
    standard_grid,
    sweep,
)
from gvmred.exact import form_values
from gvmred.gk import _folded, entry_readers, integrality_classes, key_readers, split_classes
from gvmred.tableaux import key_columns, mirrored_run_columns

import conftest
from conftest import SIGMA, TAU, saturated_form_values, sc, seq
from dense_gk import NonIntegralWeight, gk_dimension_integral
from references import (
    columns_depth_sum,
    columns_even_depth_sum,
    labeled_classes,
    plan_parts,
    six_run_cases,
    six_run_keys,
)

A = lambda n: LieType("A", n)
D = lambda n: LieType("D", n)


def test_classes_type_a_split_by_difference():
    dec = labeled_classes(seq("3/2", 1, "1/2", 0), A(4))
    assert dec.classes == (seq("3/2", "1/2"), seq(1, 0))
    assert dec.other_classes == ()


def test_classes_type_d_sum_relation():
    dec = labeled_classes(seq("1/3", 5, "2/3"), D(4))
    assert dec.integer_class == seq(5)
    assert dec.half_class is None
    assert dec.other_classes == (seq("1/3", "2/3"),)


def test_classes_type_d_half_integers():
    dec = labeled_classes(seq("1/2", "3/2"), D(4))
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
    assert dense_gk.fold(seq("1/3", "4/3", "2/3")) == seq("1/3", "4/3", "-2/3")
    assert dense_gk.fold(seq("1/4")) == seq("1/4")
    assert dense_gk.fold(seq("2/3", "1/3", "5/3")) == seq("2/3", "5/3", "-1/3")


def test_fold_class_with_symbols():
    x = (TAU + 5, TAU + 4, -TAU + 1, TAU + 2)
    assert dense_gk.fold(x) == (TAU + 5, TAU + 4, TAU + 2, TAU - 1)


def test_gk_dominant_integral_type_a_is_zero():
    # z1 = z2 = 0: the shifted weight is rho
    assert gk_dimension(ParabolicSetup(A(4), 1, 2), 0, 0) == 0
    assert dense_gk.gk_dimension_of_weight(dense_gk.weyl_vector(A(4)), A(4)) == 0


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
    assert gk_dimension(setup, TAU, TAU) == 21 == setup.dim_u
    assert gk_dimension(setup, sc("-5/2"), sc("-5/2")) == 21


def test_gk_type_d_spin_pair_generic():
    setup = ParabolicSetup(D(6), 5, 6)
    assert gk_dimension(setup, TAU, TAU) == 20 == setup.dim_u


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
        assert gk <= setup.dim_u


def test_integral_path_rejects_split_weights():
    with pytest.raises(NonIntegralWeight):
        gk_dimension_integral(seq(0, "1/2"), A(2))
    with pytest.raises(NonIntegralWeight):
        gk_dimension_integral(seq("1/3", 0, "2/3", 1), D(4))


def test_block_core_matches_dense_route_on_standard_grids():
    """The rows of a sweep, whose GK dimensions go through one memo, as
    ``verify`` computes them."""
    checked = 0
    for kind, n_max in (("A", 6), ("D", 7)):
        for setup in family_setups(kind, n_max):
            grid = standard_grid(setup)
            report = sweep(setup, grid)
            assert not report.errors and len(report.rows) == len(grid)
            for row in report.rows:
                dense = dense_gk.gk_dimension(setup, row.z1, row.z2)
                assert row.verdict.gk == dense, (setup, row.z1, row.z2)
                checked += 1
    assert checked > 35000


def _padded(runs, step):
    """The runs and an empty one just below the last, with its index, as
    ``gk.class_plan`` pads an unlabeled class of two blocks (step 1) and a
    labeled class of one block (step 2)."""
    i, top, length = runs[-1]
    return (*runs, (i, top - step * length, 0))


def _synthetic_class(rng, kind, values, count):
    """A planned class of the given (labeled, blocks) kind, runs of lengths
    1 to 5 with tops near 0, padded as ``gk.class_plan`` pads; a labeled
    class's tops share one parity."""
    labeled, blocks = kind
    index = lambda: rng.randint(-count, count)
    if not labeled:
        runs = tuple((index(), rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(blocks))
        return False, _padded(runs, 1) if blocks == 2 else runs
    runs, parity = [], None
    for _ in range(blocks):
        i, top, length = index(), rng.randint(-12, 12), rng.randint(1, 5)
        if parity is None:
            parity = (values[i] + top) % 2
        top += (values[i] + top - parity) % 2
        runs.append((i, top, length))
    return True, _padded(runs, 2) if blocks == 1 else tuple(runs)


def test_a_miss_takes_each_class_depth_sum_off_the_base():
    """On plans with a class of every kind a miss reads, with runs longer
    than one (as no standard setup's labeled class of two blocks has), the
    GK dimension is the plan's base less the depth sums of each class's
    expanded keys, even boxes only in a labeled class."""
    rng = random.Random(2027)
    count = len(ParabolicSetup(D(6), 1, 5).gk_key.forms)
    kinds = [(False, 2), (False, 3), (True, 1), (True, 2)]
    for _ in range(300):
        exact = tuple(rng.randint(-9, 9) for _ in range(count))
        values = (0, *exact, *[-v for v in reversed(exact)])
        classes = tuple(_synthetic_class(rng, kind, values, count) for kind in rng.sample(kinds, 3))
        expected = 30
        for labeled, runs in classes:
            keys = [values[i] + t for i, terms in plan_parts(labeled, runs) for t in terms]
            columns = key_columns(keys)
            expected -= columns_even_depth_sum(columns) if labeled else columns_depth_sum(columns)
        assert gk_module._gk_from_plan((30, classes), exact) == expected, classes


def test_each_sweep_starts_with_an_empty_memo(monkeypatch):
    """Shapes are computed once per form-value key of a sweep, and a
    second sweep of the same setup computes them all again: a miss computes
    the columns of every class in closed form, an unlabeled class's and a
    labeled class's."""
    calls = []

    def counted(shape):
        def count(*args):
            calls.append(args)
            return shape(*args)

        return count

    for name in ("three_run_columns", "mirrored_run_columns"):
        monkeypatch.setattr(gk_module, name, counted(getattr(gk_module, name)))
    for setup in (ParabolicSetup(A(6), 2, 4), ParabolicSetup(D(6), 1, 5)):
        grid = standard_grid(setup)
        counts = []
        for _ in range(2):
            calls.clear()
            sweep(setup, grid)
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1] < len(grid) / 2


def test_no_sweep_miss_inserts_keys(monkeypatch):
    """Over the A<=5 and D<=6 families, the verify workloads' setups, no
    miss inserts keys: with the insertion loop raising, every sweep is
    clean.  The so(2n) (1, n - 1) setups meet their labeled class of three
    blocks, which a miss reads as two runs, X then R and y."""
    assert not hasattr(gk_module, "insertion_columns")

    def raising(keys):
        raise AssertionError("a miss inserted keys")

    monkeypatch.setattr(tableaux_module, "insertion_columns", raising)
    rewritten = 0
    for kind, n_max in (("A", 5), ("D", 6)):
        for setup in family_setups(kind, n_max):
            setup = ParabolicSetup(setup.lie, setup.p, setup.q)  # no plan kept yet
            report = sweep(setup, standard_grid(setup))
            assert not report.errors and report.rows, setup
            if (setup.p, setup.q) == (1, setup.n - 1) and kind == "D":
                rewritten += sum(
                    1
                    for _, classes in setup.class_plans.values()
                    for labeled, runs in classes
                    if labeled and runs[1][2] == setup.n - 1  # R and y
                )
    assert rewritten


def test_the_six_run_class_reads_as_the_spin_swapped_class():
    """so(2n) (1, n - 1) for n = 4 to 20: the plan of the all-integral
    pattern reads its labeled class of three blocks as two runs, X and
    R followed by y, and for every X and y of one parity across windows past
    every threshold the class's own 2n keys, X, R, -y then their reversed
    negation, have the even-box depth sum of those two runs' closed form
    (``mirrored_run_columns``), though the shapes differ in some cases."""
    cases = differing = 0
    for n in range(4, 21):
        setup = ParabolicSetup(D(n), 1, n - 1)
        forms = setup.gk_key.forms
        _, classes = gk_module.class_plan(setup, (0,) * len(forms))
        (labeled, runs), = [c for c in classes if c[0]]
        # X = (4, 2)'s value + 2(n - 1) and y = (0, 2)'s, that is 2*z1 + z2 and z2
        i, j = forms.index((4, 2)) + 1, forms.index((0, 2)) + 1
        assert runs == ((i, 2 * n - 2, 1), (j, 2 * n - 4, n - 1)), n
        for X, y in six_run_cases(n):
            keys = six_run_keys(X, y, n)
            own = key_columns(keys)
            closed = tuple(c for c in mirrored_run_columns(X, 1, y + 2 * (n - 2), n - 1) if c)
            assert columns_even_depth_sum(own) == columns_even_depth_sum(closed), (n, X, y)
            cases += 1
            differing += own != closed
    assert cases > 20000 and differing


def test_repeated_keys_skip_the_miss_path(monkeypatch):
    """In one sweep the class split, the key building and the half-line
    test run once per distinct saturated form-value key, of which there are
    fewer than exact ones, and the half-line test reads each such key."""
    half_lines, misses = [], []
    half_line, gk_from_plan = verdict_module.on_half_line, gk_module._gk_from_plan

    def counted_half_line(setup, key):
        half_lines.append(key)
        return half_line(setup, key)

    def counted_miss(plan, exact):
        misses.append(exact)
        return gk_from_plan(plan, exact)

    monkeypatch.setattr(verdict_module, "on_half_line", counted_half_line)
    monkeypatch.setattr(gk_module, "_gk_from_plan", counted_miss)
    for setup in (ParabolicSetup(A(6), 2, 4), ParabolicSetup(D(6), 1, 5)):
        grid = standard_grid(setup)
        forms, windows, _, _, _ = setup.gk_key
        exact = {form_values(forms, z1, z2) for z1, z2 in grid.points()}
        keys = {saturated_form_values(forms, windows, z1, z2) for z1, z2 in grid.points()}
        half_lines.clear()
        misses.clear()
        report = sweep(setup, grid)
        assert len(report.rows) == len(grid)
        assert len(half_lines) == len(set(half_lines)) == len(misses)
        assert set(half_lines) == keys
        assert len(misses) == len(keys) < len(exact) < len(grid) / 2


def _pairs(*pairs):
    return [(sc(a), sc(b)) for a, b in pairs]


SMALL_SETUPS = family_setups("A", 8) + family_setups("D", 8)


def test_gk_forms_are_nonzero_sign_canonical_and_distinct():
    assert ParabolicSetup(A(6), 2, 4).gk_key.forms == ((2, 0), (2, 2), (0, 2))
    # blocks (2, 1), (0, 1), (0, -1): o_1 + o_2 vanishes, 2*o_2 = -2*o_1
    assert ParabolicSetup(D(6), 1, 5).gk_key.forms == ((4, 2), (2, 0), (2, 2), (0, 2))
    for setup in SMALL_SETUPS:
        forms = setup.gk_key.forms
        assert len(set(forms)) == len(forms)
        for x, y in forms:
            assert x > 0 or (x == 0 and y > 0), (setup, x, y)


def test_gk_windows_span_every_key_comparison():
    """Each form's window is one past the extreme thresholds it is compared
    with: r' - r for a pair of blocks whose offset difference is the form
    (up to sign s, applied), -(r + r') for a type D sum or double."""
    for setup in family_setups("A", 9) + family_setups("D", 9):
        coefficients = setup.block_plan.coefficients
        runs = setup.block_plan.rho_runs
        relations = [(-1, lambda r, r2: r2 - r)]
        if setup.lie.kind == "D":
            relations.append((1, lambda r, r2: -(r + r2)))
        thresholds = {form: [] for form in setup.gk_key.forms}
        for (a1, a2), run in zip(coefficients, runs):
            for (c1, c2), other in zip(coefficients, runs):
                for sign, threshold in relations:
                    x, y = a1 + sign * c1, a2 + sign * c2
                    if (x, y) == (0, 0):
                        continue
                    s = 1 if (x, y) > (0, 0) else -1
                    thresholds[s * x, s * y].extend(s * threshold(r, r2) for r in run for r2 in other)
        expected = tuple((min(t) - 1, max(t) + 1) for t in thresholds.values())
        assert setup.gk_key.windows == expected, setup


def test_gk_key_decides_the_criterion_on_every_setup():
    """Over every setup of A<=40 and D<=80: the criterion's forms (2, 0),
    (0, 2) and (2, 2), whose values are z1, z2 and z1 + z2, are among the
    key's forms, recorded in ``half_lines`` with the setup's bounds; each
    bound b has lo < b <= hi in its form's window, so clamping keeps every
    half-line test; and each window is one past the extreme thresholds its
    form is compared with, so no bound widened one, and memo keys, cells
    and misses are what the thresholds alone give."""
    checked = 0
    for setup in family_setups("A", 40) + family_setups("D", 80):
        key = setup.gk_key
        assert [key.forms[i] for i, _ in key.half_lines] == [(2, 0), (0, 2), (2, 2)], setup
        assert tuple(b for _, b in key.half_lines) == setup.half_lines, setup
        for i, b in key.half_lines:
            lo, hi = key.windows[i]
            assert lo < b <= hi, setup
        # r' - r, or -(r + r') in type D, is extremal at the runs' endpoints
        plan = setup.block_plan
        signs = (-1, 1) if setup.lie.kind == "D" else (-1,)
        thresholds = {form: [] for form in key.forms}
        for (a1, a2), run in zip(plan.coefficients, plan.rho_runs):
            for (c1, c2), other in zip(plan.coefficients, plan.rho_runs):
                for sign in signs:
                    x, y = a1 + sign * c1, a2 + sign * c2
                    if (x, y) == (0, 0):
                        continue
                    s = 1 if (x, y) > (0, 0) else -1
                    thresholds[s * x, s * y].extend(
                        s * (r2 - r if sign < 0 else -(r + r2))
                        for r in (run[0], run[-1])
                        for r2 in (other[0], other[-1])
                    )
        expected = tuple((min(t) - 1, max(t) + 1) for t in thresholds.values())
        assert key.windows == expected, setup
        checked += 1
    assert checked == 9880 + 231


def class_signature(count, difference, total):
    """The class structure a point's GK dimension depends on: per class the
    labeled flag (a type D integral or half-integral class, whose keys are
    doubled) and, per member block in key order, its index, flipped flag
    and integer key base."""
    signature = []
    for members in split_classes(count, difference, total):
        h = members[0][0]
        if total is not None and total(h, h) is not None:
            signature.append((True, tuple((b, f, total(b, b)) for b, f in members)))
            continue
        if total is not None:
            members = _folded(members)
        blocks = tuple(
            (b, True, -total(b, h)) if f else (b, False, difference(b, h)) for b, f in members
        )
        signature.append((False, blocks))
    return tuple(signature)


def _dense_signature(setup, z1, z2, offsets):
    """The signature the dense adapters give the point's block offsets;
    ``offsets`` caches (c1*z1 + c2*z2)/2 by (c1, c2) across setups."""
    coefficients = setup.block_plan.coefficients
    for c1, c2 in coefficients:
        if (c1, c2) not in offsets:
            offsets[c1, c2] = (c1 * z1 + c2 * z2) * Fraction(1, 2)
    values = [offsets[pair] for pair in coefficients]
    return class_signature(len(values), *entry_readers(values, setup.lie.kind == "D"))


@settings(max_examples=150, deadline=None)
@given(st.lists(conftest.scalar_pairs(), min_size=2, max_size=8))
# Points whose keys collide on some so(2n) setup, while their signatures
# differ, once the sum forms or the doubled forms are dropped: a flipped
# member against a second class (the first two), a labeled class against
# an unlabeled one and two labeled bases (the last three).
@example(_pairs(("1/3", "-1/3"), ("1/5", "1/5"), ("1/3", 0), ("1/3", "1/3"), ("1/3", 2)))
# Colliding keys with different points: all None, and one shared value.
@example([(TAU, SIGMA), (SIGMA, TAU), (sc("1/3"), TAU), (TAU + 1, 2 - TAU), (TAU, 3 - TAU)])
def test_equal_form_values_give_equal_class_signatures(pairs):
    """The signature read off a point's key is the one the dense adapters
    compute from its block offsets, so points with equal keys have equal
    signatures."""
    offsets = [{} for _ in pairs]
    for setup in SMALL_SETUPS:
        seen = {}
        for (z1, z2), cache in zip(pairs, offsets):
            key = form_values(setup.gk_key.forms, z1, z2)
            signature = class_signature(len(setup.block_plan.rho_runs), *key_readers(setup, key))
            dense = _dense_signature(setup, z1, z2, cache)
            assert signature == dense, (setup, z1, z2)
            assert seen.setdefault(key, dense) == dense, (setup, z1, z2)


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


@settings(max_examples=150, deadline=None)
@given(setups(), st.lists(conftest.scalar_pairs(), min_size=1, max_size=6))
def test_planned_misses_match_dense_route(setup, pairs):
    """A miss on a point's exact form values, through the class plan of
    their None pattern (built by the first point with it, reused by the
    rest), gives the dense GK dimension."""
    forms = setup.gk_key.forms
    for z1, z2 in pairs:
        exact = form_values(forms, z1, z2)
        expected = dense_gk.gk_dimension(setup, z1, z2)
        plan = gk_module.plan_of(setup, tuple(None if v is None else 0 for v in exact))
        assert gk_module._gk_from_plan(plan, exact) == expected, (setup, z1, z2)
    assert 0 < len(setup.class_plans) <= len(pairs)


LARGE_N = 120


@pytest.mark.parametrize(
    "setup",
    [
        ParabolicSetup(A(LARGE_N), 1, 2),
        ParabolicSetup(A(LARGE_N), 40, 80),
        ParabolicSetup(D(LARGE_N), 1, LARGE_N - 1),
        ParabolicSetup(D(LARGE_N), 1, LARGE_N),
        ParabolicSetup(D(LARGE_N), LARGE_N - 1, LARGE_N),
    ],
    ids=lambda s: f"{s.lie.kind}{s.lie.n}-{s.p}-{s.q}",
)
def test_block_core_matches_dense_route_at_large_rank(setup):
    """Long runs: classes of dozens of keys per block, interleaved."""
    points = _pairs(
        (0, 0), (-60, -3), ("-121/2", "-7/2"), (-80, 40), ("1/3", -5),
        (-LARGE_N, -LARGE_N), ("-5/2", "-5/2"),
    ) + [(TAU - 4, 3 - TAU)]
    for z1, z2 in points:
        assert gk_dimension(setup, z1, z2) == dense_gk.gk_dimension(setup, z1, z2), (z1, z2)


@settings(max_examples=200, deadline=None)
@given(
    setups(),
    st.lists(st.one_of(parameter_pairs(), conftest.scalar_pairs()), min_size=2, max_size=40),
    st.randoms(),
)
# Signatures that differ only in a flipped flag (the first two points of
# the D example), only in the labeled flag (its last two), and only in a
# base (the A example).
@example(
    ParabolicSetup(D(4), 1, 4),
    _pairs(("-9/2", "5/2"), (-2, "-11/2"), (0, "-11/2"), (0, 0)),
    random.Random(0),
)
@example(ParabolicSetup(A(3), 1, 2), _pairs((-5, -5), (-5, 0)), random.Random(0))
# Exact keys (-6, -12, -18, -6) and (-5, -10, -15, -5) that saturate to one
# key (-4, -6, -7, -5): the difference, the sum and the first block's double
# lie past their windows at both points.
@example(ParabolicSetup(D(4), 1, 4), _pairs((-6, -6), (-5, -5)), random.Random(0))
def test_shared_memo_matches_fresh_points(setup, pairs, rng):
    """Points of one setup through one sweep's memo, in two orders, give
    each point's one-point GK dimension."""
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    for order in (pairs, shuffled):
        report = sweep(setup, ParameterGrid((), (), tuple(order)))
        assert not report.errors
        assert [(row.z1, row.z2) for row in report.rows] == list(dict.fromkeys(order))
        for row in report.rows:
            assert row.verdict.gk == gk_dimension(setup, row.z1, row.z2)


dense_entries = st.lists(
    st.builds(lambda r, g: ExactScalar(r) + g, rationals, offsets), min_size=4, max_size=8
)


@settings(max_examples=200, deadline=None)
@given(dense_entries, st.sampled_from("AD"))
def test_dense_adapters_match_dense_route(entries, kind):
    dec = labeled_classes(entries, LieType(kind, len(entries)))
    classes, integer, half, others = dense_gk.classes(entries, kind)
    assert dec.classes == classes
    if kind == "D":
        assert (dec.integer_class, dec.half_class, dec.other_classes) == (integer, half, others)


@st.composite
def type_a_weights(draw):
    """3-8 entries drawn around at most three bases, so classes have
    several members; half-integer steps keep some entries unrelated."""
    bases = draw(st.lists(conftest.scalars, min_size=1, max_size=3))
    steps = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2)))
    size = draw(st.integers(3, 8))
    return [draw(st.sampled_from(bases)) + draw(steps) for _ in range(size)]


common_shifts = st.one_of(
    conftest.rationals.map(ExactScalar), conftest.rationals.map(lambda r: ExactScalar(r) + TAU)
)


@settings(max_examples=200, deadline=None)
@given(type_a_weights(), common_shifts)
def test_type_a_gk_invariant_under_common_shift(entries, shift):
    lie = A(len(entries))
    shifted = [entry + shift for entry in entries]
    assert dense_gk.gk_dimension_of_weight(shifted, lie) == dense_gk.gk_dimension_of_weight(
        entries, lie
    )


# Diagram automorphisms: each maps one setup's parabolic to another's and
# xi_p, xi_q to fundamental weights of the image, so it relates the GK
# dimensions of two setups whose block plans, gk_key tables, windows and
# class splits differ.


def _gk_values(setup, points):
    """GK dimensions at the distinct ``points``, read off a sweep over them;
    a sweep over them in reverse order gives the same."""
    values = []
    for order in (points, points[::-1]):
        report = sweep(setup, ParameterGrid((), (), tuple(order)))
        assert not report.errors and len(report.rows) == len(points)
        values.append([row.verdict.gk for row in report.rows])
    assert values[1] == values[0][::-1]
    return values[0]


def _swapped(points):
    return [(z2, z1) for z1, z2 in points]


def test_sl_n_flip_swaps_the_parameters():
    """The flip i <-> n - i maps (p, q) to (n - q, n - p), and xi_p and xi_q
    to xi_(n-p) and xi_(n-q): GK(p, q; z1, z2) = GK(n - q, n - p; z2, z1)."""
    checked = 0
    for setup in family_setups("A", 7):
        n, p, q = setup.n, setup.p, setup.q
        if (n - q, n - p) < (p, q):
            continue  # its pair was checked from the other side
        points = standard_grid(setup).points()
        flipped = ParabolicSetup(A(n), n - q, n - p)
        assert _gk_values(setup, points) == _gk_values(flipped, _swapped(points)), setup
        checked += len(points)
    assert checked > 25000


def test_sl_n_flip_swaps_the_half_lines():
    for n in range(3, 41):
        for p in range(1, n - 1):
            for q in range(p + 1, n):
                b1, b2, b12 = ParabolicSetup(A(n), p, q).half_lines
                assert ParabolicSetup(A(n), n - q, n - p).half_lines == (b2, b1, b12)


def test_so_2n_spin_swap():
    """Swapping the two spin nodes fixes (n-1, n) and exchanges z1 and z2
    there, and maps (1, n-1) to (1, n) at the same point."""
    for n in range(4, 10):
        points = standard_grid(ParabolicSetup(D(n), 1, n)).points()
        spins = ParabolicSetup(D(n), n - 1, n)
        assert _gk_values(spins, points) == _gk_values(spins, _swapped(points)), n
        assert _gk_values(ParabolicSetup(D(n), 1, n - 1), points) == _gk_values(
            ParabolicSetup(D(n), 1, n), points
        ), n


def test_so_8_triality():
    """Triality of so(8) maps (1, 3) to (3, 4) at the same point."""
    points = standard_grid(ParabolicSetup(D(4), 1, 3)).points()
    assert _gk_values(ParabolicSetup(D(4), 1, 3), points) == _gk_values(
        ParabolicSetup(D(4), 3, 4), points
    )
