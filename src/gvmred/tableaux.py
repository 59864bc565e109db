"""Robinson-Schensted shape statistics.

Row insertion bumps the leftmost entry strictly greater than the inserted
value, so rows are weakly increasing and equal values accumulate in one
row.  There is one insertion loop, ``insertion_rows``, over any totally
ordered keys: the GK-dimension oracle feeds it integer keys, and the
ExactScalar functions (``rs_shape``, ``rs_tableau``, ``depth_sum``,
``even_depth_sum``) feed it the rational parts of a sequence whose entries
share one symbol part.  Only the shape matters downstream; the full
tableau is kept solely for the CLI's debug rendering.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .exact import ExactScalar, IncomparableScalars

Shape = tuple[int, ...]
ScalarSequence = tuple[ExactScalar, ...]


def _order_keys(seq: Sequence[ExactScalar]) -> list[Fraction]:
    """Rational sort keys; requires all entries to share one symbol part."""
    if not seq:
        return []
    lead = seq[0].generic
    for e in seq[1:]:
        if e.generic != lead:
            raise IncomparableScalars(
                f"sequence mixes symbol parts: {seq[0]} vs {e}"
            )
    return [e.rational for e in seq]


def insertion_rows(keys: Sequence) -> list[list]:
    """Rows of the insertion tableau of ``keys``, processed left to right."""
    rows: list[list] = []
    for v in keys:
        for row in rows:
            if v >= row[-1]:
                row.append(v)
                break
            j = bisect_right(row, v)
            row[j], v = v, row[j]
        else:
            rows.append([v])
    return rows


def key_shape(keys: Sequence) -> Shape:
    """Shape of the insertion tableau of totally ordered keys."""
    return tuple(len(row) for row in insertion_rows(keys))


def rs_shape(seq: Sequence[ExactScalar]) -> Shape:
    """Shape of the insertion tableau of ``seq``, processed left to right."""
    return key_shape(_order_keys(seq))


def rs_tableau(seq: Sequence[ExactScalar]) -> tuple[ScalarSequence, ...]:
    """Full insertion tableau (row-major), for debug output.

    Entries share one symbol part, so equal keys stand for equal scalars.
    """
    keys = _order_keys(seq)
    scalar_of = dict(zip(keys, seq))
    return tuple(tuple(scalar_of[k] for k in row) for row in insertion_rows(keys))


def render_tableau(tableau: tuple[ScalarSequence, ...]) -> str:
    """Plain-text grid, one row per line, entries separated by spaces."""
    return "\n".join(" ".join(str(e) for e in row) for row in tableau)


def minus_double(seq: Sequence) -> tuple:
    """``seq`` followed by its reversed negation; length doubles.

    Works on exact scalars and on integer keys alike.
    """
    return tuple(seq) + tuple(-e for e in reversed(seq))


def even_odd_counts(shape: Shape) -> tuple[tuple[int, ...], tuple[int, ...]]:
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


def conjugate(shape: Shape) -> Shape:
    """Column lengths of the diagram (the transposed partition)."""
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p >= j) for j in range(1, shape[0] + 1))


def shape_depth_sum(shape: Shape) -> int:
    """Sum over boxes of the shape of (row index - 1)."""
    return sum(i * p for i, p in enumerate(shape))


def shape_even_depth_sum(shape: Shape) -> int:
    """Like shape_depth_sum but counting only even boxes."""
    ev, _ = even_odd_counts(shape)
    return sum(i * e for i, e in enumerate(ev))


def depth_sum(seq: Sequence[ExactScalar]) -> int:
    """Sum over boxes of the insertion shape of (row index - 1)."""
    return shape_depth_sum(rs_shape(seq))


def even_depth_sum(seq: Sequence[ExactScalar]) -> int:
    """Like depth_sum but counting only even boxes."""
    return shape_even_depth_sum(rs_shape(seq))
