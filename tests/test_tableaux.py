import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gvmred import (
    IncomparableScalars,
    conjugate,
    rs_shape,
    rs_tableau,
)
from gvmred.cli import MAX_RANK
from gvmred.tableaux import (
    key_columns,
    mirrored_run_columns,
    render_tableau,
    three_run_columns,
)

import dense_gk
from conftest import SIGMA, TAU, sc, seq
from references import (
    columns_depth_sum,
    columns_even_depth_sum,
    even_odd_counts,
    minus_double,
)


def longest_weakly_increasing(values) -> int:
    best = [0] * len(values)
    for i, v in enumerate(values):
        best[i] = 1 + max(
            (best[j] for j in range(i) if values[j] <= v), default=0
        )
    return max(best, default=0)


def longest_strictly_decreasing(values) -> int:
    best = [0] * len(values)
    for i, v in enumerate(values):
        best[i] = 1 + max(
            (best[j] for j in range(i) if values[j] > v), default=0
        )
    return max(best, default=0)


def test_rs_shape_examples():
    assert rs_shape(seq(3, 2, 1)) == (1, 1, 1)
    assert rs_shape(seq(1, 2, 3)) == (3,)
    assert rs_shape(seq(0, 0)) == (2,)
    assert rs_shape(seq(5, 3, 3, 1)) == (2, 1, 1)
    assert rs_shape(()) == ()


def test_rs_tableau_columns_match_displayed_orientation():
    # the columns of the (5,3,3,1) tableau read (1,3,5) and (3)
    tab = rs_tableau(seq(5, 3, 3, 1))
    assert tab == (seq(1, 3), seq(3,), seq(5,))
    assert render_tableau(tab) == "1 3\n3\n5"


def test_rs_shape_mixed_symbols_rejected():
    with pytest.raises(IncomparableScalars):
        rs_shape((TAU, SIGMA))
    with pytest.raises(IncomparableScalars):
        rs_shape((TAU, sc(1)))


def test_minus_double_examples():
    assert minus_double(seq(1, 0)) == seq(1, 0, 0, -1)
    a = TAU
    assert minus_double((a,)) == (a, -a)
    x = (TAU + 1, TAU + 2, TAU + 3)
    assert minus_double(x) == x + (-(TAU + 3), -(TAU + 2), -(TAU + 1))


def test_even_odd_counts_examples():
    assert even_odd_counts((3,)) == ((2,), (1,))
    assert even_odd_counts((2, 1, 1)) == ((1, 0, 1), (1, 1, 0))
    assert even_odd_counts(()) == ((), ())


def test_even_odd_counts_complement():
    for shape in ((5, 4, 4, 2, 1), (3, 3, 3), (2,), ()):
        ev, odd = even_odd_counts(shape)
        assert tuple(e + o for e, o in zip(ev, odd)) == shape


def test_depth_sum_examples():
    assert key_columns((1, 2, 3)) == (1, 1, 1)
    assert columns_depth_sum(key_columns((1, 2, 3))) == 0
    assert columns_depth_sum(key_columns((3, 2, 1))) == 3
    assert columns_depth_sum(key_columns((5, 3, 3, 1))) == 3


def test_even_depth_sum_examples():
    assert columns_even_depth_sum(key_columns(())) == 0
    assert columns_even_depth_sum(key_columns((1, -1))) == 0
    assert columns_even_depth_sum(key_columns((1, 0, 0, -1))) == 2
    # rows (3, 3, 2, 1) hold even boxes at depths 0, 0 | 1 | 2 | none
    assert columns_even_depth_sum((4, 3, 2)) == 3


def test_conjugate():
    assert conjugate((3, 3, 2, 1, 1, 1)) == (6, 3, 2)
    assert conjugate((2, 1, 1)) == (3, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def _reference_rows(values):
    return [tuple(row) for row in dense_gk.insertion_rows(list(values))]


def _assert_matches_row_insertion(values):
    """The columns of the strict-row insertion of the reversed word are the
    columns of the row-insertion tableau of the word, entry by entry."""
    rows = _reference_rows(values)
    assert rs_shape(seq(*values)) == tuple(len(row) for row in rows)
    tableau = rs_tableau(seq(*values))
    assert [tuple(e.rational for e in row) for row in tableau] == rows


small_sequences = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=0, max_size=8
)


@given(small_sequences)
def test_shape_is_partition_of_the_length(values):
    shape = rs_shape(seq(*values))
    assert sum(shape) == len(values)
    assert all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1))


@given(small_sequences)
def test_first_row_and_column_are_subsequence_statistics(values):
    _assert_matches_row_insertion(values)
    shape = rs_shape(seq(*values))
    if values:
        assert shape[0] == longest_weakly_increasing(values)
        assert conjugate(shape)[0] == longest_strictly_decreasing(values)


def test_subsequence_oracle_exhaustive_small_alphabet():
    for length in range(0, 7):
        for values in itertools.product(range(4), repeat=length):
            _assert_matches_row_insertion(values)
            shape = rs_shape(seq(*values))
            assert sum(shape) == length
            if length:
                assert shape[0] == longest_weakly_increasing(values)
                assert conjugate(shape)[0] == longest_strictly_decreasing(values)


@given(small_sequences, st.integers(min_value=-4, max_value=4))
def test_shape_invariant_under_common_shift(values, shift):
    base = rs_shape(seq(*values))
    shifted = rs_shape(tuple(sc(v) + sc(shift) for v in values))
    assert base == shifted
    with_symbol = rs_shape(tuple(sc(v) + TAU for v in values))
    assert base == with_symbol
    assert base == rs_shape(tuple(sc(Fraction(v, 3)) + TAU for v in values))


def test_monotone_sequences():
    for n in range(1, 9):
        down = seq(*range(n, 0, -1))
        up = seq(*range(n))
        assert rs_shape(down) == (1,) * n
        assert columns_depth_sum(conjugate(rs_shape(down))) == n * (n - 1) // 2
        assert rs_shape(up) == (n,)
        assert columns_depth_sum(conjugate(rs_shape(up))) == 0


def _runs_keys(runs, step=1):
    return [top - step * i for top, length in runs for i in range(length)]


def _mirrored_keys(a, p, b, q):
    """The doubled keys of a labeled class of two blocks, or of one with
    q = 0: two runs of step 2, then their reversed negation."""
    keys = _runs_keys([(a, p), (b, q)], 2)
    return keys + [-k for k in reversed(keys)]


def _nonzero(columns):
    return tuple(c for c in columns if c)


def test_three_and_four_run_columns_exhaustive():
    """The closed forms are the insertion's column lengths on every three
    runs of step 1 with lengths 1 to 5, the first top 0 and the others in
    [-10, 10], and on every mirrored pair of runs of step 2 with lengths 1
    to 5 and tops of one parity in [-21, 21]: windows that hold every
    order type of such runs, since only the order of the keys and their
    mirrors matters.  With an empty last run just below the one before it,
    as a class plan pads, they are the columns of every two runs of step 1
    with tops in [-8, 8] and lengths 1 to 6, and of every mirrored run of
    step 2 with its top in [-21, 21] and length 1 to 6."""
    checked = 0
    lengths = range(1, 6)
    for b, c in itertools.product(range(-10, 11), repeat=2):
        for p, q, r in itertools.product(lengths, repeat=3):
            columns = key_columns(_runs_keys([(0, p), (b, q), (c, r)]))
            assert _nonzero(three_run_columns(0, p, b, q, c, r)) == columns, (b, c, p, q, r)
            checked += 1
    for a, b in itertools.product(range(-8, 9), repeat=2):
        for p, q in itertools.product(range(1, 7), repeat=2):
            columns = key_columns(_runs_keys([(a, p), (b, q)]))
            assert _nonzero(three_run_columns(a, p, b, q, b - q, 0)) == columns, (a, p, b, q)
            checked += 1
    for a, b in itertools.product(range(-21, 22), repeat=2):
        if (a - b) % 2:
            continue
        for p, q in itertools.product(lengths, repeat=2):
            columns = key_columns(_mirrored_keys(a, p, b, q))
            assert _nonzero(mirrored_run_columns(a, p, b, q)) == columns, (a, p, b, q)
            checked += 1
    for a in range(-21, 22):
        for p in range(1, 7):
            columns = key_columns(_mirrored_keys(a, p, a - 2 * p, 0))
            assert _nonzero(mirrored_run_columns(a, p, a - 2 * p, 0)) == columns, (a, p)
            checked += 1
    assert checked == 21 * 21 * 125 + 17 * 17 * 36 + (22 * 22 + 21 * 21) * 25 + 43 * 6


decreasing_runs = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(1, 25), st.sampled_from((1, 2))),
    min_size=1,
    max_size=6,
)


@given(decreasing_runs)
@example([(5, 3, 1), (6, 4, 1)])  # two runs of step 1: the padded three-run form applies
@example([(5, 3, 2), (9, 4, 2)])  # two runs of step 2 with one parity, mirrored
@example([(5, 3, 2)])  # one run of step 2, mirrored: the padded mirrored form
@example([(5, 3, 1), (6, 4, 1), (-2, 2, 1)])  # three runs of step 1
def test_key_columns_of_decreasing_runs(runs):
    """A weakly increasing subsequence takes at most one key per strictly
    decreasing run, so there are at most as many columns as runs; the
    column depth sums are the row-insertion ones.  The closed forms give
    the columns of two or three runs of step 1, the two with an empty
    third run as a class plan pads them, and of one or two runs of step 2
    of one parity followed by their reversed negation, the one with an
    empty second run."""
    keys = [start - step * i for start, length, step in runs for i in range(length)]
    columns = key_columns(keys)
    assert len(columns) <= len(runs)
    assert columns == conjugate(tuple(len(row) for row in _reference_rows(keys)))
    steps = {step for _, _, step in runs}
    if len(runs) == 2 and steps == {1}:
        (a, p, _), (b, q, _) = runs
        assert _nonzero(three_run_columns(a, p, b, q, b - q, 0)) == columns
    if len(runs) == 3 and steps == {1}:
        (a, p, _), (b, q, _), (c, r, _) = runs
        assert _nonzero(three_run_columns(a, p, b, q, c, r)) == columns
    if len(runs) <= 2 and steps == {2} and (runs[0][0] - runs[-1][0]) % 2 == 0:
        # the runs and their reversed negation: a labeled class of one or two
        # blocks, one block padded with an empty run
        (a, p, _), *rest = runs
        b, q = rest[0][:2] if rest else (a - 2 * p, 0)
        mirrored = key_columns(keys + [-k for k in reversed(keys)])
        assert _nonzero(mirrored_run_columns(a, p, b, q)) == mirrored
    assert columns_depth_sum(columns) == dense_gk.depth_sum(seq(*keys))
    assert columns_even_depth_sum(columns) == dense_gk.even_depth_sum(seq(*keys))


@st.composite
def anchored_runs(draw, count, step):
    """``count`` strictly decreasing runs of ``step``, (top, length), with
    lengths up to ``MAX_RANK``: the first top anywhere in [-4000, 4000] or
    within 3 steps of 0 or of the top that puts the run's middle or bottom
    at 0, each later top within 3 steps of an earlier run's top, bottom or,
    for step 2, mirror threshold (a top or bottom negated), where the order
    of the keys and their mirrors changes."""
    runs = []
    for _ in range(count):
        length = draw(st.integers(1, MAX_RANK))
        if runs:
            ends = [v for top, p in runs for v in (top, top - step * (p - 1))]
            anchor = draw(st.sampled_from(ends + [-v for v in ends] if step == 2 else ends))
        else:
            span = step * (length - 1)
            anchor = draw(st.integers(-4000, 4000) | st.sampled_from((0, span // 2, span)))
        runs.append((anchor + step * draw(st.integers(-3, 3)), length))
    return runs


@settings(max_examples=150, deadline=None)
@given(anchored_runs(3, 1), anchored_runs(2, 1), anchored_runs(2, 2), anchored_runs(1, 2))
def test_closed_forms_at_the_clis_run_lengths(three, two, mirrored_two, mirrored_one):
    """The closed forms are the insertion's column lengths at every run
    length the CLI's ranks reach, up to ``MAX_RANK``: three runs of step
    1, two padded with an empty third run, and one or two runs of step 2
    followed by their reversed negation, the one padded with an empty run.
    Tops sit near the order boundaries where the candidate chains split."""
    (a, p), (b, q), (c, r) = three
    assert _nonzero(three_run_columns(a, p, b, q, c, r)) == key_columns(_runs_keys(three))
    (a, p), (b, q) = two
    assert _nonzero(three_run_columns(a, p, b, q, b - q, 0)) == key_columns(_runs_keys(two))
    (a, p), (b, q) = mirrored_two
    assert _nonzero(mirrored_run_columns(a, p, b, q)) == key_columns(_mirrored_keys(a, p, b, q))
    ((a, p),) = mirrored_one
    columns = key_columns(_mirrored_keys(a, p, a - 2 * p, 0))
    assert _nonzero(mirrored_run_columns(a, p, a - 2 * p, 0)) == columns
