"""Robinson-Schensted shape statistics.

Row insertion bumps the leftmost entry strictly greater than the inserted
value, so rows are weakly increasing and equal values accumulate in one
row.  The one insertion loop, ``insertion_columns``, builds that tableau
by columns, by Schuetzenberger's transpose property (Knuth, TAOCP vol. 3,
5.1.4): its transpose is the strict-row insertion tableau of the reversed
keys.  A weakly increasing subsequence takes at most one key per strictly
decreasing run, so keys of m runs give at most m columns and each key
visits at most m lists.  The GK-dimension oracle's integer keys have at
most six runs, and it reads only their column lengths.  For keys of two
runs of step 1 they have a closed form (``two_run_columns``, by Greene's
theorem), which the oracle takes for its classes of two runs; it inserts
the keys of the others.  ``key_columns`` reads the column lengths off the
insertion, for any keys.  ``rs_shape`` and ``rs_tableau`` insert the
integer ranks of the rational parts of ExactScalars sharing one symbol
part; the full tableau is kept for the CLI's debug rendering.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .exact import ExactScalar, IncomparableScalars

Shape = tuple[int, ...]
ScalarSequence = tuple[ExactScalar, ...]


def _order_keys(seq: Sequence[ExactScalar]) -> list[int]:
    """Integer ranks of the rational parts among the distinct ones; requires
    all entries to share one symbol part."""
    if not seq:
        return []
    lead = seq[0].tau, seq[0].sigma
    for e in seq[1:]:
        if (e.tau, e.sigma) != lead:
            raise IncomparableScalars(
                f"sequence mixes symbol parts: {seq[0]} vs {e}"
            )
    rationals = [e.rational for e in seq]
    rank = {r: i for i, r in enumerate(sorted(set(rationals)))}
    return [rank[r] for r in rationals]


def insertion_columns(keys: Sequence) -> list[list]:
    """Columns, top to bottom, of the row-insertion tableau of ``keys``:
    the rows of the strict-row insertion tableau of the reversed keys."""
    columns: list[list] = []
    for v in reversed(keys):
        for column in columns:
            if v > column[-1]:
                column.append(v)
                break
            j = bisect_left(column, v)
            column[j], v = v, column[j]
        else:
            columns.append([v])
    return columns


def key_columns(keys: Sequence) -> Shape:
    """Column lengths of the insertion tableau of totally ordered keys."""
    return tuple([len(column) for column in insertion_columns(keys)])


def two_run_columns(d: int, p: int, q: int) -> tuple[int, int]:
    """Column lengths of the insertion tableau of two strictly decreasing
    runs of step 1, a, a - 1, ..., a - p + 1 then b, ..., b - q + 1, where
    d = a - b; the second is 0 when there is one column.

    By Greene's theorem (Adv. Math. 14, 1974) the first column is the
    longest strictly decreasing subsequence.  One whose last key of the
    first run is x takes that run down to x, then the keys of the second
    run below x.  Lowering x by one adds a key and drops at most one, so a
    longest one takes the whole second run alone, or the whole first run
    and the clamp(d + q - p, 0, q) keys of the second below a - p + 1.  The
    other keys fill the second column, since two runs give at most two."""
    first = max(q, p + min(max(d + q - p, 0), q))
    return first, p + q - first


def rs_shape(seq: Sequence[ExactScalar]) -> Shape:
    """Shape of the insertion tableau of ``seq``, processed left to right."""
    return conjugate(key_columns(_order_keys(seq)))


def rs_tableau(seq: Sequence[ExactScalar]) -> tuple[ScalarSequence, ...]:
    """Full insertion tableau (row-major), for debug output.

    Entries share one symbol part, so equal keys stand for equal scalars.
    """
    keys = _order_keys(seq)
    scalar_of = dict(zip(keys, seq))
    columns = insertion_columns(keys)
    rows: list[list] = [[] for _ in (columns[0] if columns else ())]
    for column in columns:
        for row, k in zip(rows, column):
            row.append(scalar_of[k])
    return tuple(map(tuple, rows))


def render_tableau(tableau: tuple[ScalarSequence, ...]) -> str:
    """Plain-text grid, one row per line, entries separated by spaces."""
    return "\n".join(" ".join(str(e) for e in row) for row in tableau)


def conjugate(shape: Shape) -> Shape:
    """Column lengths of the diagram (the transposed partition)."""
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p >= j) for j in range(1, shape[0] + 1))
