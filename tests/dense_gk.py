"""Dense reference route for the GK dimension, for cross-checking.

This is the entry-by-entry computation over exact scalars: the Weyl
vector and the fundamental weights are built here as n ``ExactScalar``s
each (the sl(n) weights in type A), the shifted weight is their
combination, classes are found by testing every entry against each class
representative (equal or negated symbol parts, and a ``Fraction``
difference or sum of the rational parts with denominator 1), and
Robinson-Schensted insertion runs on the rational parts.  From the
package it takes only the scalar type (whose decoded ``den``/``terms``
label a class) and the exception ``IndexOutOfRange``; it calls no
function of ``gvmred.rootdata``, ``gvmred.gk``, ``gvmred.tableaux`` or
the integer tests of ``gvmred.exact``, so the block computation in the
package can be checked against it.  ``NonIntegralWeight``, which only
the tests raise, is defined here.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from gvmred import ExactScalar, IndexOutOfRange


class NonIntegralWeight(ValueError):
    """A weight required to be integral has several integrality classes."""


@lru_cache(maxsize=None)
def weyl_vector(lie) -> tuple[ExactScalar, ...]:
    """Half the sum of positive roots, in e_1..e_n coordinates."""
    n = lie.n
    if lie.kind == "A":
        return tuple(ExactScalar(Fraction(n - 2 * i + 1, 2)) for i in range(1, n + 1))
    return tuple(ExactScalar(n - i) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def fundamental_weight(lie, i: int) -> tuple[ExactScalar, ...]:
    """The fundamental weight dual to the i-th simple coroot."""
    n = lie.n
    if not 1 <= i <= lie.simple_root_count:
        raise IndexOutOfRange(f"fundamental weight index {i} out of range for {lie}")
    if lie.kind == "A":
        head, tail = Fraction(n - i, n), Fraction(-i, n)
        return tuple(ExactScalar(head if j < i else tail) for j in range(n))
    if i <= n - 2:
        return tuple(ExactScalar(1 if j < i else 0) for j in range(n))
    half = Fraction(1, 2)
    last = -half if i == n - 1 else half
    return tuple(ExactScalar(half) for _ in range(n - 1)) + (ExactScalar(last),)


def shifted_weight(setup, z1, z2) -> tuple[ExactScalar, ...]:
    """z1*xi_p + z2*xi_q + rho, entry by entry."""
    z1 = z1 if isinstance(z1, ExactScalar) else ExactScalar(z1)
    z2 = z2 if isinstance(z2, ExactScalar) else ExactScalar(z2)
    xi_p = fundamental_weight(setup.lie, setup.p)
    xi_q = fundamental_weight(setup.lie, setup.q)
    rho = weyl_vector(setup.lie)
    return tuple(z1 * a.rational + z2 * b.rational + r for a, b, r in zip(xi_p, xi_q, rho))


def sub_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """a - b is an integer: equal symbol parts, integral rational difference."""
    return a.generic == b.generic and (a.rational - b.rational).denominator == 1


def sum_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """a + b is an integer: negated symbol parts, integral rational sum."""
    negated = tuple((name, -coeff) for name, coeff in b.generic)
    return a.generic == negated and (a.rational + b.rational).denominator == 1


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
