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
runs (6 when doubled) and as many columns (``tableaux.key_columns``).

A shape depends only on the relative order of its keys, ties included,
and each comparison of two keys of a class is one of those values against
an integer threshold (a difference or sum of rho entries).  So points
whose values agree once saturated at the windows of
``ParabolicSetup.gk_key`` (each int clamped to one past its extreme
thresholds) have equal None patterns, so equal class splits, and keys in
the same order, so equal GK dimensions.  The one GK memo, in
``harness.sweep``, is keyed on the saturated values and belongs to one
sweep of one setup; a new key's integer keys are built from the exact
values (``_gk_from_values``), since the key bases are not the saturated
ones.

The class split reads only which form values are None, and a setup's
points meet few such None patterns.  So a miss does not split: it looks
up the setup's class plan for its pattern (``class_plan``, kept in
``ParabolicSetup.class_plans`` and built on the pattern's first miss by
``split_classes`` on the pattern's readers, ``key_readers``).  A plan
lists each class as its labeled flag and, per member block in key
order, a signed index into the point's values and the rho terms its
base is added to, so a miss builds each class's keys as base + t per
member and inserts them once (``tableaux.key_columns``).  A plan holds
no GK value.

The form values are the oracle's only integrality decision.  A sweep
reads them off its grid's cells (``harness.ParameterGrid.form_cells``,
numbered once per grid and form set), clamps each cell's exact values
into its memo key and calls ``_gk_from_values`` on the exact values of
each cell whose key is new (``harness.sweep``).  So each grid point is
decoded once for every setup swept over the grid, and numbered into its
cell once for every setup sharing its forms.  ``gk_dimension``, the
one-point call, is ``_gk_from_values`` of the point's exact
``exact.form_values``, with no memo.

``integrality_classes`` runs the same split on a dense weight of
ExactScalars, one single-entry block per coordinate, reading the entries'
``exact.integer_difference`` and ``exact.integer_sum`` (``entry_readers``).
The dense GK dimension that cross-checks this module lives with the tests
(``tests/dense_gk.py``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .exact import ExactScalar, form_values, integer_difference, integer_sum
from .rootdata import LieType, ParabolicSetup
from .tableaux import (
    ScalarSequence,
    columns_depth_sum,
    columns_even_depth_sum,
    key_columns,
)

# Unused here; kept importable from this module, where perfbench/tracing.py
# wraps them.
from .exact import sub_is_integer, sum_is_integer  # noqa: F401
from .rootdata import shifted_weight  # noqa: F401

Member = tuple[int, bool]  # (block index, joined to the class head by a sum)
# (b, c) -> o_b - o_c, or o_b + o_c, as an int when it is an integer, else None
Reader = Callable[[int, int], "int | None"]
# (labeled, ((signed index into the form values, rho terms), ...)) per class
ClassPlan = tuple[tuple[bool, tuple[tuple[int, tuple[int, ...]], ...]], ...]


class ClassDecomposition(NamedTuple):
    """Integrality classes of a weight, in order of first occurrence.

    For type D the classes are additionally labeled: ``integer_class``
    (all entries integers), ``half_class`` (all entries in 1/2 + Z) and
    ``other_classes`` (the rest).  There is at most one of each labeled
    kind, since any two all-integer entries are related.
    """

    classes: tuple[ScalarSequence, ...]
    integer_class: ScalarSequence | None = None
    half_class: ScalarSequence | None = None
    other_classes: tuple[ScalarSequence, ...] = ()


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
    _, _, differences, sums = setup.gk_key
    return (lambda b, c: values[differences[b][c]]), (
        None if sums is None else lambda b, c: values[sums[b][c]]
    )


def entry_readers(entries, use_sum: bool) -> tuple[Reader, Reader | None]:
    """(difference, total) of exact entries."""
    return (lambda b, c: integer_difference(entries[b], entries[c])), (
        (lambda b, c: integer_sum(entries[b], entries[c])) if use_sum else None
    )


def class_plan(setup: ParabolicSetup, pattern: tuple) -> ClassPlan:
    """The classes of every point whose form values over
    ``setup.gk_key.forms`` are None exactly where ``pattern`` is (its ints
    are 0): ``split_classes`` on the pattern's readers, since the split
    reads only which values are None.  Each class is (labeled, parts), a
    part a signed index into the values tuple of ``_gk_from_values`` and
    the rho terms its base is added to: ``differences[b][h]`` with
    ``runs[b]`` for a difference member, ``-sums[b][h]`` with -r over
    ``reversed(runs[b])`` for a flipped one, ``sums[b][b]`` with 2r for a
    member of a labeled class, whose keys are then doubled."""
    runs = setup.block_plan.rho_runs
    _, _, differences, sums = setup.gk_key
    difference, total = key_readers(setup, pattern)
    plan = []
    for members in split_classes(len(runs), difference, total):
        h = members[0][0]
        # labeled: the head, so the whole class, is integral or half-integral
        if total is not None and total(h, h) is not None:
            parts = [(sums[b][b], tuple([2 * r for r in runs[b]])) for b, _ in members]
            plan.append((True, tuple(parts)))
            continue
        parts = [
            (-sums[b][h], tuple([-r for r in reversed(runs[b])]))
            if flipped
            else (differences[b][h], runs[b])
            for b, flipped in (members if total is None else _folded(members))
        ]
        plan.append((False, tuple(parts)))
    return tuple(plan)


def _gk_from_values(setup: ParabolicSetup, exact: tuple) -> int:
    """GK dimension of the point whose exact form values over
    ``setup.gk_key.forms`` are ``exact``: the type's triangular bound minus the
    depth sums of its classes' integer keys, built by the setup's class plan
    for the values' None pattern (``class_plan``, kept in
    ``setup.class_plans``, built on the pattern's first miss)."""
    pattern = tuple([None if v is None else 0 for v in exact])
    plans = setup.class_plans
    plan = plans.get(pattern)
    if plan is None:
        plan = plans[pattern] = class_plan(setup, pattern)
    # index i > 0 reads exact[i - 1], -i its negation, 0 a vanishing pair
    values = (0, *exact, *[None if v is None else -v for v in reversed(exact)])
    n = setup.lie.n
    gk = n * (n - 1) // 2 if setup.lie.kind == "A" else n * n - n
    for labeled, parts in plan:
        keys = [values[i] + t for i, terms in parts for t in terms]
        if labeled:
            keys += [-k for k in reversed(keys)]
            gk -= columns_even_depth_sum(key_columns(keys))
        else:
            gk -= columns_depth_sum(key_columns(keys))
    return gk


def integrality_classes(entries, lie: LieType) -> ClassDecomposition:
    """Integrality classes of exact entries, labeled in type D."""
    entries = tuple(entries)
    difference, total = entry_readers(entries, lie.kind == "D")
    split = split_classes(len(entries), difference, total)
    classes = tuple(tuple(entries[b] for b, _ in members) for members in split)
    if total is None:
        return ClassDecomposition(classes=classes)
    labeled, others = {}, []
    for members, group in zip(split, classes):
        doubled = total(members[0][0], members[0][0])
        if doubled is None:
            others.append(group)
        else:  # an integer class when twice its head is even
            labeled[doubled % 2] = group
    return ClassDecomposition(classes, labeled.get(0), labeled.get(1), tuple(others))


def gk_dimension(setup: ParabolicSetup, z1, z2) -> int:
    """GK dimension at the scalar highest weight z1*xi_p + z2*xi_q: the
    one-point call, ``_gk_from_values`` of the point's exact
    ``exact.form_values`` over ``setup.gk_key.forms``, with no memo."""
    z1 = z1 if isinstance(z1, ExactScalar) else ExactScalar(z1)
    z2 = z2 if isinstance(z2, ExactScalar) else ExactScalar(z2)
    return _gk_from_values(setup, form_values(setup.gk_key.forms, z1, z2))
