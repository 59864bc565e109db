"""Closed forms and shape counts that only the tests use.

``minus_double`` (the dense route's) appends a sequence's reversed
negation; ``int_at_least`` and ``sum_int_at_least`` are one-point
half-line tests on the scalars' fields, for the case-by-case criterion
references; ``single_weight_reducible`` is the maximal-parabolic case of
the criterion, kept as a reference for the two-parameter half-lines;
``has_maximal_shape`` reads the same verdict off an integral type A
weight's insertion tableau; ``even_odd_counts`` splits a shape's boxes
by parity, for the type D shape checks; ``columns_depth_sum`` and
``columns_even_depth_sum`` are the depth sums a GK miss takes column by
column (``gk._gk_from_values``), from a tuple of column lengths;
``plan_parts`` expands a class plan's runs back to rho terms, a labeled
class's reversed negation included.
"""

from __future__ import annotations

from gvmred import IndexOutOfRange, conjugate, rs_shape
from gvmred.exact import integer_difference, integer_sum
from gvmred.verdict import _coerce

from dense_gk import NonIntegralWeight, minus_double  # noqa: F401


class WrongLieType(ValueError):
    """A type-specific test was called for the other Lie type."""


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
    return int_at_least(_coerce(z), 1 - min(p, n - p))


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
