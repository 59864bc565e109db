"""Integrality classes of a shifted weight and Gelfand-Kirillov dimension.

The entries of the shifted weight are partitioned into maximal classes:
for type A two entries are related when their difference is an integer,
for type D when their difference or their sum is.  Each class keeps the
original entry order.  The GK dimension of the simple quotient is the
type's triangular bound minus shape statistics of the classes.

Everything runs on blocks (``rootdata.BlockPlan``): runs of integer rho
entries sharing one offset o_b.  Entries of one block differ by integers,
so classes are unions of blocks, found by testing at most three offsets
rather than every pair of entries.  Within a class every entry shares the
head block's symbol part and fractional part, up to sign, so the
Robinson-Schensted keys are integers:

* a difference class has keys ``(o_b - o_head) + rho_j``;
* a type D class that is neither integral nor half-integral is folded:
  blocks joined to the head by an integral sum are negated and appended
  in reverse order, with keys ``-(o_b + o_head) - rho_j``;
* the integral and half-integral type D classes are doubled with reversed
  negation, with keys ``2 * o_b + 2 * rho_j``.

So the split (``split_classes``) and the keys read two functions of a
pair of blocks only: o_b - o_c and, in type D, o_b + o_c (o_b + o_b for
the labeled test and the doubled keys), each an int when it is an integer
and None otherwise.  On a setup's points each is, up to sign, one value
(x*z1 + y*z2)/2 of a form of ``ParabolicSetup.gk_key``.  Each block's
keys form one strictly decreasing run, so a class's keys have at most 3
runs (6 when doubled) and as many columns.

A shape depends only on the relative order of its keys, ties included,
and each comparison of two keys of a class is one of those values against
an integer threshold (a difference or sum of rho entries).  So points
whose values agree once saturated at the windows of
``ParabolicSetup.gk_key`` (each int clamped to one past its extreme
thresholds) have equal None patterns, so equal class splits, and keys in
the same order, so equal GK dimensions.  The one GK memo, in
``harness.decide_cells``, is keyed on the saturated values and belongs
to one sweep of one setup.  A grid clamps its cells' values at a
setup's windows once, when the first sweep at those windows builds its
cell table, and each distinct clamped tuple, a coarse cell of the table,
is one key.  A new key's integer keys are built from the exact values of
its first cell (``_gk_from_plan``), not from clamped ones: a class's key
comparisons read differences of its runs' values, so the key bases are
not the saturated ones.

The class split reads only which form values are None, and a setup's
points meet few such None patterns.  So a miss does not split: it reads
the setup's class plan for its pattern (``class_plan``, kept in
``ParabolicSetup.class_plans`` and built on the pattern's first use by
``plan_of``, ``split_classes`` on the pattern's readers, ``key_readers``).
A plan is (base, classes).  An unlabeled class of one block reads no
value: its keys are its rho run, one column, so the base is the type's
triangular bound less m(m - 1)/2 for each such class of m entries.
``classes`` lists every other class as its labeled flag and its runs,
each a (signed index into the point's values, top term, length) triple:
the run's keys are the value plus the top term, then stepping down by 1,
or by 2 in a labeled class, whose keys are its runs followed by their
reversed negation, which the plan does not store.  An unlabeled class
has three runs, one per member block in key order, and a labeled one
two.  An unlabeled class of two blocks, or a labeled one of one block,
is padded with an empty run (length 0) just below its last run, with
that run's index.  An empty run adds no key, and the closed forms take
one there (checked exhaustively in the tests).

A labeled class of three blocks occurs only in so(2n) (1, n - 1), the
one type D setup with three blocks.  With X = 2*z1 + z2 + 2(n - 1) and
y = z2, integers of one parity there, its keys are X, then
R = y + 2(n - 2), ..., y + 2, then -y, then their reversed negation.  The
diagram automorphism of so(2n) that swaps alpha_(n-1) and alpha_n maps
the setup to (1, n) at the same point, whose one labeled class has the
same keys but for the middle pair, (y, -y) instead of (-y, y).  The two
setups have the same GK dimension there and the same base, each class
being its setup's only one, so the two classes have the same even-box
depth sum, though their shapes can differ (checked exhaustively in the
tests over windows past every threshold).  So ``class_plan`` reads the
class as the (1, n) class, two runs: X, and R followed by y.

So a miss reads every class's column lengths in closed form from the
runs' tops, by Greene's theorem, with no key list:

* an unlabeled class (``tableaux.three_run_columns``);
* a labeled class, its two runs then their reversed negation
  (``tableaux.mirrored_run_columns``).

A miss (``_gk_from_plan``) takes each class's depth sum off the plan's
base as it reads the column lengths, in one loop over the classes.  A
plan holds no point's value and no GK value.

The form values are the oracle's only integrality decision, and the
criterion's too (``verdict.on_half_line``).  A sweep reads them off its
grid's cell table and calls ``plan_of`` and ``_gk_from_plan`` once per
distinct memo key; ``harness.decide_cells`` describes its stages.
``gk_dimension``, the one-point call, is ``_gk_from_plan`` of the
point's exact ``exact.form_values`` and the plan of their pattern, with
no memo.

``integrality_classes`` runs the same split on a dense weight of
ExactScalars, one single-entry block per coordinate, reading the entries'
``exact.integer_difference`` and ``exact.integer_sum`` (``entry_readers``),
and returns the classes alone; the tests label them.
The dense GK dimension that cross-checks this module lives with the tests
(``tests/dense_gk.py``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .exact import form_values, integer_difference, integer_sum
from .rootdata import LieType, ParabolicSetup
from .tableaux import ScalarSequence, mirrored_run_columns, three_run_columns

# Unused here; kept importable from this module, where perfbench/tracing.py
# wraps them.
from .exact import sub_is_integer, sum_is_integer  # noqa: F401
from .rootdata import shifted_weight  # noqa: F401

Member = tuple[int, bool]  # (block index, joined to the class head by a sum)
# (b, c) -> o_b - o_c, or o_b + o_c, as an int when it is an integer, else None
Reader = Callable[[int, int], "int | None"]
# (base, ((labeled, ((signed index into the form values, top term, length), ...)), ...)):
# the triangular bound less the constant classes' deficits, and the other
# classes' runs, three in an unlabeled class and two in a labeled one,
# whose reversed negation is implied
ClassPlan = tuple[int, tuple[tuple[bool, tuple[tuple, ...]], ...]]


class ClassDecomposition(NamedTuple):
    """Integrality classes of a weight, in order of first occurrence."""

    classes: tuple[ScalarSequence, ...]


def split_classes(count: int, difference: Reader, total: Reader | None) -> list[list[Member]]:
    """Indices 0..count-1 grouped into integrality classes, in order of
    first occurrence.

    An index joins the first class whose head (first member) it differs
    from by an integer, or, when ``total`` is given, sums with to an
    integer; sums mark the member as flipped.  The relation x = +-y mod Z
    is an equivalence, so testing heads suffices.
    """
    classes: list[list[Member]] = []
    for b in range(count):
        for members in classes:
            h = members[0][0]
            if difference(b, h) is not None:
                members.append((b, False))
                break
            if total is not None and total(b, h) is not None:
                members.append((b, True))
                break
        else:
            classes.append([(b, False)])
    return classes


def _folded(members: list[Member]) -> list[Member]:
    """Difference members in order, then the flipped ones reversed."""
    return [m for m in members if not m[1]] + [m for m in reversed(members) if m[1]]


def key_readers(setup: ParabolicSetup, key: tuple) -> tuple[Reader, Reader | None]:
    """(difference, total) of the setup's block offsets, read off the form
    values ``key`` through the signed indices of ``setup.gk_key``'s pair
    tables."""
    # index i > 0 reads key[i - 1], -i its negation, 0 a vanishing pair
    values = (0, *key, *[None if v is None else -v for v in reversed(key)])
    _, _, differences, sums, _ = setup.gk_key
    return (lambda b, c: values[differences[b][c]]), (
        None if sums is None else lambda b, c: values[sums[b][c]]
    )


def entry_readers(entries, use_sum: bool) -> tuple[Reader, Reader | None]:
    """(difference, total) of exact entries."""
    return (lambda b, c: integer_difference(entries[b], entries[c])), (
        (lambda b, c: integer_sum(entries[b], entries[c])) if use_sum else None
    )


def class_plan(setup: ParabolicSetup, pattern: tuple) -> ClassPlan:
    """(base, classes) for every point whose form values over
    ``setup.gk_key.forms`` are None exactly where ``pattern`` is (its ints
    are 0): ``split_classes`` on the pattern's readers, since the split
    reads only which values are None.

    An unlabeled class of one block has the one run ``runs[h]``, so its
    keys never read the point: they are one strictly decreasing run, one
    column of m = ``len(runs[h])`` boxes (Schensted 1961), whose depth sum
    m(m - 1)/2 is taken off the type's triangular bound into ``base``.
    ``classes`` holds the other classes as (labeled, runs), each run a
    signed index into the values tuple of ``_gk_from_plan``, the top
    term its base is added to and a length: ``differences[b][h]`` with
    ``runs[b]`` for a difference member, ``-sums[b][h]`` with -r over
    ``reversed(runs[b])`` for a flipped one, both of step 1, and
    ``sums[b][b]`` with 2r, of step 2, for a member of a labeled class,
    whose keys are followed by their reversed negation.  A labeled class
    of three blocks, so(2n) (1, n - 1)'s, drops its last block's one key
    -y and gives the middle block's run a last key y (the spin swap of
    the module docstring).  An unlabeled class of two blocks and a labeled
    one of one block get an empty run, the last run's index, its top less
    its length times its step, and length 0, so an unlabeled class has
    three runs and a labeled one two.  A plan holds nothing that depends
    on a point's values."""
    runs = setup.block_plan.rho_runs
    _, _, differences, sums, _ = setup.gk_key
    difference, total = key_readers(setup, pattern)
    n = setup.lie.n
    base = n * (n - 1) // 2 if setup.lie.kind == "A" else n * n - n
    classes = []
    for members in split_classes(len(runs), difference, total):
        h = members[0][0]
        # labeled: the head, so the whole class, is integral or half-integral
        labeled = total is not None and total(h, h) is not None
        if labeled:
            parts = [(sums[b][b], 2 * runs[b][0], len(runs[b])) for b, _ in members]
            if len(parts) == 3:  # X, R, -y read as X, then R and y
                (i, top, length), _ = parts[1], parts.pop()
                parts[1] = i, top, length + 1
        elif len(members) == 1:
            m = len(runs[h])
            base -= m * (m - 1) // 2
            continue
        else:
            parts = [
                (-sums[b][h], -runs[b][-1], len(runs[b]))
                if flipped
                else (differences[b][h], runs[b][0], len(runs[b]))
                for b, flipped in (members if total is None else _folded(members))
            ]
        if len(parts) < 3 - labeled:  # an empty run just below the last one
            i, top, length = parts[-1]
            parts.append((i, top - (length << labeled), 0))
        classes.append((labeled, tuple(parts)))
    return base, tuple(classes)


def plan_of(setup: ParabolicSetup, pattern: tuple) -> ClassPlan:
    """The setup's class plan for ``pattern``, kept in
    ``setup.class_plans`` and built by ``class_plan`` on its first use."""
    plan = setup.class_plans.get(pattern)
    if plan is None:
        plan = setup.class_plans[pattern] = class_plan(setup, pattern)
    return plan


def _gk_from_plan(plan: ClassPlan, exact: tuple) -> int:
    """GK dimension of the points whose exact form values over the
    setup's ``gk_key.forms`` are ``exact`` and whose class plan (``plan_of``
    of the values' None pattern) is ``plan``: the plan's base minus the
    depth sums of its classes' integer keys, even boxes only for a labeled
    class, each taken off as its column lengths are read in closed form
    from the runs' tops, one branch per class kind: three runs of an
    unlabeled class (``tableaux.three_run_columns``), and two runs of a
    labeled class, then their reversed negation
    (``tableaux.mirrored_run_columns``).  The plan holds no point's value;
    the tops are read off ``exact`` here, a negative signed index negating
    its value."""
    # signed index i > 0 reads exact[i - 1], -i its negation, 0 a vanishing pair
    values = (0, *exact)
    gk, classes = plan
    # depth sums: c(c - 1)/2 per column; a labeled class counts even boxes
    # only, rows 1, 3, ... of the first and third column and 2, 4, ... of
    # the others, (c + 1)//2 * ((c - 1)//2) and (c//2)**2
    for labeled, runs in classes:
        if not labeled:  # three runs of step 1
            (i, s, p), (j, t, q), (k, u, r) = runs
            s += values[i] if i >= 0 else -values[-i]
            t += values[j] if j >= 0 else -values[-j]
            u += values[k] if k >= 0 else -values[-k]
            c1, c2, c3 = three_run_columns(s, p, t, q, u, r)
            gk -= (c1 * (c1 - 1) + c2 * (c2 - 1) + c3 * (c3 - 1)) // 2
        else:  # two runs of step 2, then their reversed negation
            (i, s, p), (j, t, q) = runs
            s += values[i] if i >= 0 else -values[-i]
            t += values[j] if j >= 0 else -values[-j]
            c1, c2, c3, c4 = mirrored_run_columns(s, p, t, q)
            gk -= (c1 + 1) // 2 * ((c1 - 1) // 2) + (c2 // 2) ** 2
            gk -= (c3 + 1) // 2 * ((c3 - 1) // 2) + (c4 // 2) ** 2
    return gk


def integrality_classes(entries, lie: LieType) -> ClassDecomposition:
    """Integrality classes of exact entries: by integral differences, and in
    type D by integral sums too."""
    entries = tuple(entries)
    difference, total = entry_readers(entries, lie.kind == "D")
    split = split_classes(len(entries), difference, total)
    return ClassDecomposition(tuple(tuple(entries[b] for b, _ in members) for members in split))


def gk_dimension(setup: ParabolicSetup, z1, z2) -> int:
    """GK dimension at the scalar highest weight z1*xi_p + z2*xi_q: the
    one-point call, ``_gk_from_plan`` of the point's exact
    ``exact.form_values`` over ``setup.gk_key.forms`` and the plan of their
    None pattern (``plan_of``), with no memo; ``form_values`` coerces an
    int or ``Fraction`` parameter (``exact.as_scalar``)."""
    exact = form_values(setup.gk_key.forms, z1, z2)
    return _gk_from_plan(plan_of(setup, tuple([None if v is None else 0 for v in exact])), exact)
