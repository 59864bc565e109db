"""Dense reference route for the GK dimension, for cross-checking.

This is the entry-by-entry computation over exact scalars: the shifted
weight is built as n ``ExactScalar``s, classes are found by testing every
entry against each class representative, and Robinson-Schensted insertion
runs on the rational parts.  From the package it takes only the scalar
type (whose decoded ``den``/``terms`` label a class), ``shifted_weight``,
the integrality predicates ``sub_is_integer``/``sum_is_integer`` and the
``NonIntegralWeight`` exception; it calls no function of ``gvmred.gk`` or
``gvmred.tableaux``, so the block computation in the package can be
checked against it.
"""

from __future__ import annotations

from bisect import bisect_right

from gvmred import NonIntegralWeight, shifted_weight, sub_is_integer, sum_is_integer


def classes(entries, kind: str):
    """(classes, integer class, half class, other classes) by first occurrence."""
    use_sum = kind == "D"
    reps, groups = [], []
    for e in entries:
        for rep, group in zip(reps, groups):
            if sub_is_integer(e, rep) or (use_sum and sum_is_integer(e, rep)):
                group.append(e)
                break
        else:
            reps.append(e)
            groups.append([e])
    integer = half = None
    others = []
    for rep, group in zip(reps, groups):
        if rep.terms or rep.den > 2:
            others.append(tuple(group))
        elif rep.den == 1:
            integer = tuple(group)
        else:
            half = tuple(group)
    return tuple(tuple(g) for g in groups), integer, half, tuple(others)


def fold(x):
    first = x[0]
    keep = [e for e in x if sub_is_integer(e, first)]
    flip = [e for e in x if not sub_is_integer(e, first)]
    assert all(sum_is_integer(e, first) for e in flip)
    return tuple(keep) + tuple(-e for e in reversed(flip))


def minus_double(x):
    return tuple(x) + tuple(-e for e in reversed(x))


def insertion_rows(values):
    """Rows of the row-insertion tableau, bumping the leftmost entry
    strictly greater than the inserted value."""
    rows = []
    for v in values:
        for row in rows:
            if v >= row[-1]:
                row.append(v)
                break
            j = bisect_right(row, v)
            row[j], v = v, row[j]
        else:
            rows.append([v])
    return rows


def shape(seq):
    assert len({e.generic for e in seq}) <= 1
    return tuple(len(r) for r in insertion_rows([e.rational for e in seq]))


def depth_sum(seq) -> int:
    return sum(i * p for i, p in enumerate(shape(seq)))


def even_depth_sum(seq) -> int:
    total = 0
    for i, p in enumerate(shape(seq)):
        total += i * ((p + 1) // 2 if i % 2 == 0 else p // 2)
    return total


def gk_dimension_of_weight(weight, lie) -> int:
    entries = tuple(weight)
    n = lie.n
    assert len(entries) == n
    all_classes, integer, half, others = classes(entries, lie.kind)
    if lie.kind == "A":
        return n * (n - 1) // 2 - sum(depth_sum(x) for x in all_classes)
    total = n * n - n
    for labeled in (integer, half):
        if labeled:
            total -= even_depth_sum(minus_double(labeled))
    for x in others:
        total -= depth_sum(fold(x))
    return total


def gk_dimension(setup, z1, z2) -> int:
    return gk_dimension_of_weight(shifted_weight(setup, z1, z2), setup.lie)


def gk_dimension_integral(weight, lie) -> int:
    """Single-class specialization: the whole weight as one sequence.

    Type A: the triangular bound minus the depth sum; type D: minus the
    even depth sum of the doubled sequence.
    """
    entries = tuple(weight)
    n = lie.n
    if len(entries) != n:
        raise ValueError(f"weight has length {len(entries)}, expected {n}")
    all_classes, _, _, others = classes(entries, lie.kind)
    if len(all_classes) != 1 or (lie.kind == "D" and others):
        raise NonIntegralWeight(f"weight {entries} is not integral for {lie}")
    if lie.kind == "A":
        return n * (n - 1) // 2 - depth_sum(entries)
    return n * n - n - even_depth_sum(minus_double(entries))
