"""Closed forms and shape counts that only the tests use.

``minus_double`` (the dense route's) appends a sequence's reversed
negation; ``criterion_values`` reads z1, z2 and z1 + z2 off the scalars'
fields, the criterion's values by a route of their own, for checking the
form values the criterion reads; ``int_at_least`` and
``sum_int_at_least`` are one-point half-line tests on the same fields,
for the case-by-case criterion references; ``single_weight_reducible`` is the maximal-parabolic case of
the criterion, kept as a reference for the two-parameter half-lines;
``has_maximal_shape`` reads the same verdict off an integral type A
weight's insertion tableau; ``even_odd_counts`` splits a shape's boxes
by parity, for the type D shape checks; ``columns_depth_sum`` and
``columns_even_depth_sum`` are the depth sums a GK miss takes column by
column (``gk._gk_from_values``), from a tuple of column lengths;
``highest_root_multiplicity`` reads a simple root's multiplicity off
the highest root's coordinates, and ``classify_parabolic`` sums it over
any set of removed roots, the general nilpotency classifier that the
rule of ``ParabolicSetup`` and ``rootdata.two_step_pairs`` is checked
against; ``labeled_classes`` labels ``gk.integrality_classes`` in type D
by integer, half-integer and other classes;
``decoded_by_fractions`` decodes a point with ``Fraction`` arithmetic on
the symbol coefficients, the reference for ``exact.decode_point``;
``plan_parts`` expands a class plan's runs back to rho terms, a labeled
class's reversed negation included, and ``reader_classes`` lists a
point's classes with their key bases and rho terms from the block split; ``six_run_keys`` are the 2n keys of
so(2n) (1, n - 1)'s labeled class of three blocks, and ``six_run_cases``
the (X, y) over which the spin-swap reading of that class is checked;
``exact_cell_memo_keys`` is a sweep's memo key of every exact cell read
as it was before the cells were coarsened at the setup's windows, one
mixed-radix int over each form's codes on the exact cells, the reference
for the coarse cells a sweep decides.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import NamedTuple

from gvmred import IndexOutOfRange
from gvmred.exact import as_scalar, integer_difference, integer_sum
from gvmred.gk import _folded, integrality_classes, key_readers, split_classes
from gvmred.tableaux import conjugate, rs_shape

from dense_gk import NonIntegralWeight, minus_double  # noqa: F401


class WrongLieType(ValueError):
    """A type-specific test was called for the other Lie type."""


class NilpotencyReport(NamedTuple):
    step: int
    maximal: bool


def highest_root_multiplicity(lie, i: int) -> int:
    """Multiplicity of the i-th simple root in the highest root, solved from
    coordinates: the highest root is e_1 - e_n in sl(n) and e_1 + e_2 in
    so(2n), and the simple roots are e_j - e_(j+1), with e_(n-1) + e_n
    last in so(2n).  The coefficient of e_j - e_(j+1) is the sum S_j of
    the first j coordinates; in so(2n) the last two, c_(n-1) and c_n, solve
    c_(n-1) + c_n = S_(n-1) and c_n - c_(n-1) = v_n."""
    if not 1 <= i <= lie.simple_root_count:
        raise IndexOutOfRange(f"simple root index {i} out of range for {lie}")
    n = lie.n
    v = [1] + [0] * (n - 2) + [-1] if lie.kind == "A" else [1, 1] + [0] * (n - 2)
    sums = [sum(v[:j]) for j in range(n + 1)]
    if lie.kind == "A" or i <= n - 2:
        return sums[i]
    return (sums[n - 1] + (v[-1] if i == n else -v[-1])) // 2


def classify_parabolic(lie, removed) -> NilpotencyReport:
    """Nilpotency step and maximality of the parabolic dropping ``removed``.

    The step of the nilradical is the sum over the removed simple roots of
    their multiplicities in the highest root; the parabolic is maximal when
    a single root is removed.
    """
    removed = sorted(set(removed))
    if not removed:
        raise IndexOutOfRange("removed set must be nonempty")
    step = sum(highest_root_multiplicity(lie, i) for i in removed)
    return NilpotencyReport(step=step, maximal=len(removed) == 1)


class LabeledClasses(NamedTuple):
    """Integrality classes of a weight, in order of first occurrence, and in
    type D their labels: ``integer_class`` (all entries integers),
    ``half_class`` (all entries in 1/2 + Z) and ``other_classes`` (the
    rest).  There is at most one of each labeled kind, since any two
    all-integer entries are related."""

    classes: tuple
    integer_class: tuple | None = None
    half_class: tuple | None = None
    other_classes: tuple = ()


def labeled_classes(entries, lie) -> LabeledClasses:
    """``gk.integrality_classes`` of exact entries, labeled in type D by
    twice each class's head: an integer class when that is even, a
    half-integer one when odd, another class when it is no integer."""
    classes = integrality_classes(entries, lie).classes
    if lie.kind != "D":
        return LabeledClasses(classes)
    labeled, others = {}, []
    for group in classes:
        doubled = integer_sum(group[0], group[0])
        if doubled is None:
            others.append(group)
        else:
            labeled[doubled % 2] = group
    return LabeledClasses(classes, labeled.get(0), labeled.get(1), tuple(others))


def criterion_values(points) -> list[tuple]:
    """Per point (z1, z2): z1, z2 and z1 + z2, each as an int when it is
    an integer, else None; builds no scalar."""
    return [
        (
            z1.num if z1.is_integer else None,
            z2.num if z2.is_integer else None,
            integer_sum(z1, z2),
        )
        for z1, z2 in points
    ]


def int_at_least(z, bound: int) -> bool:
    """z is a plain integer >= bound."""
    return z.is_integer and z.num >= bound


def sum_int_at_least(a, b, bound: int) -> bool:
    """a + b is an integer >= bound."""
    total = integer_sum(a, b)
    return total is not None and total >= bound


def single_weight_reducible(n: int, p: int, z) -> bool:
    """Reducibility for the one-parameter weight z * xi_p in type A."""
    if not 1 <= p <= n - 1:
        raise IndexOutOfRange(f"p={p} out of range for sl({n})")
    return int_at_least(as_scalar(z), 1 - min(p, n - p))


def has_maximal_shape(setup, entries) -> bool:
    """Whether the insertion tableau of an integral type A weight, given by
    its entries, has the three-column shape with column lengths
    {p, q-p, n-q} (zeros dropped).

    For integral weights this holds exactly when the GK dimension attains
    the nilradical dimension.
    """
    if setup.lie.kind != "A":
        raise WrongLieType("the three-column shape test is for type A")
    if any(integer_difference(e, entries[0]) is None for e in entries[1:]):
        raise NonIntegralWeight("the three-column shape test needs an integral weight")
    columns = conjugate(rs_shape(entries))
    target = tuple(
        sorted((c for c in (setup.p, setup.q - setup.p, setup.n - setup.q) if c), reverse=True)
    )
    return columns == target


def even_odd_counts(shape: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-row counts of even and odd boxes.

    Box (i, j) is even when i + j is even (1-indexed), so row i holds
    ceil(p_i / 2) even boxes when i is odd and floor(p_i / 2) when i is
    even; the odd count is the complement.
    """
    ev = []
    odd = []
    for i, p in enumerate(shape, start=1):
        e = (p + 1) // 2 if i % 2 == 1 else p // 2
        ev.append(e)
        odd.append(p - e)
    return tuple(ev), tuple(odd)


def columns_depth_sum(columns: tuple[int, ...]) -> int:
    """Sum over boxes of (row index - 1), from the column lengths."""
    return sum([c * (c - 1) // 2 for c in columns])


def columns_even_depth_sum(columns: tuple[int, ...]) -> int:
    """Like columns_depth_sum but counting only even boxes.

    Column j (0-indexed) holds its even boxes in rows 1, 3, ... when j is
    even, adding k(k - 1) for k = ceil(c / 2), and in rows 2, 4, ... when
    j is odd, adding k^2 for k = floor(c / 2).
    """
    return sum(
        [(c // 2) ** 2 if j % 2 else (c + 1) // 2 * ((c - 1) // 2) for j, c in enumerate(columns)]
    )


def plan_parts(labeled: bool, runs) -> list:
    """A planned class's keys as (signed index, rho terms) parts: each
    (index, top term, length) run stepping down by 2 in a labeled class and
    by 1 otherwise, then in a labeled class the reversed negation of those
    parts (``gk.class_plan``)."""
    step = 2 if labeled else 1
    parts = [(i, tuple(top - step * k for k in range(length))) for i, top, length in runs]
    if labeled:
        parts += [(-i, tuple(-t for t in reversed(terms))) for i, terms in reversed(parts)]
    return parts


def six_run_keys(X: int, y: int, n: int) -> list[int]:
    """The keys of so(2n) (1, n - 1)'s labeled class of three blocks, from
    its blocks: X, then R = y + 2(n - 2), ..., y + 2, then -y, then all of
    them negated in reverse order."""
    half = [X, *range(y + 2 * (n - 2), y, -2), -y]
    return half + [-k for k in reversed(half)]


def six_run_cases(n: int):
    """Every (X, y) of one parity with y in [-2n - 1, 3] and |X| <= |y| + 2n.

    The keys compare y against the thresholds -(2n - 4), ..., 0 and X
    against 0 and +-(y + 2k) for k = 0, ..., n - 2, so these windows reach
    one past every threshold, for both parities, and every relative order
    of the keys, ties included, is met."""
    for y in range(-2 * n - 1, 4):
        bound = abs(y) + 2 * n
        for X in range(-bound + (bound + y) % 2, bound + 1, 2):
            yield X, y


def decoded_by_fractions(z1, z2):
    """``exact.decode_point`` by ``Fraction`` arithmetic: the rational parts
    over one denominator, and the symbol kernel (t2, -t1), or (s2, -s1)
    without tau, over its denominators; None when the 2x2 determinant of
    the coefficients does not vanish."""
    t1, s1, t2, s2 = (Fraction(c) for c in (z1.tau, z1.sigma, z2.tau, z2.sigma))
    if t1 * s2 != t2 * s1:
        return None
    d = z1.den * z2.den // gcd(z1.den, z2.den)
    u, v = (t2, -t1) if t1 or t2 else (s2, -s1)
    return (
        z1.num * (d // z1.den),
        z2.num * (d // z2.den),
        2 * d,
        u.numerator * v.denominator,
        v.numerator * u.denominator,
    )


def reader_classes(setup, exact):
    """Per class of the point with exact form values ``exact``: its labeled
    flag and, per member block in key order, the integer key base and the
    rho terms added to it, from ``split_classes`` and ``_folded`` on
    readers of the values themselves."""
    runs = setup.block_plan.rho_runs
    difference, total = key_readers(setup, exact)
    classes = []
    for members in split_classes(len(runs), difference, total):
        h = members[0][0]
        if total is not None and total(h, h) is not None:
            parts = [(total(b, b), tuple(2 * r for r in runs[b])) for b, _ in members]
            classes.append((True, parts))
            continue
        parts = [
            (-total(b, h), tuple(-r for r in reversed(runs[b]))) if flipped
            else (difference(b, h), runs[b])
            for b, flipped in (members if total is None else _folded(members))
        ]
        classes.append((False, parts))
    return classes


def exact_cell_memo_keys(exact, windows) -> list[int]:
    """Every exact cell's memo key: its exact values ``exact`` clamped at
    ``windows``, read as one mixed-radix int: the sum over forms of
    (clamped - lo + 1) times the form's stride, 0 for None, the stride
    being the product of (hi - lo + 2) over the earlier forms.  Each
    form's values are read through its codes over the cells, 0 for None
    and i + 1 for the i-th of its distinct ints, ascending, so each
    distinct int is clamped once."""
    columns, stride = [], 1
    for column, (lo, hi) in zip(zip(*exact), windows):
        ints = sorted(set(column).difference((None,)))
        code = dict(zip(ints, count(1)))
        code[None] = 0
        digits = (0, *[(min(max(v, lo), hi) - lo + 1) * stride for v in ints])
        columns.append(map(digits.__getitem__, map(code.__getitem__, column)))
        stride *= hi - lo + 2
    return list(map(sum, zip(*columns)))
