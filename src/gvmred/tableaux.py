"""Robinson-Schensted shape statistics.

Row insertion bumps the leftmost entry strictly greater than the inserted
value, so rows are weakly increasing and equal values accumulate in one
row.  The one insertion loop, ``insertion_columns``, builds that tableau
by columns, by Schuetzenberger's transpose property (Knuth, TAOCP vol. 3,
5.1.4): its transpose is the strict-row insertion tableau of the reversed
keys.  A weakly increasing subsequence takes at most one key per strictly
decreasing run, so keys of m runs give at most m columns and each key
visits at most m lists.  The GK-dimension oracle's integer keys have at
most six runs, and it reads only their column lengths.  Greene's theorem
(Adv. Math. 14, 1974) gives them from the runs' tops and lengths alone,
with no key list: the first k columns hold the largest union of k
strictly decreasing subsequences, and the last of m columns counts the
most disjoint weakly increasing subsequences taking a key of each run.
So ``three_run_columns`` gives the columns of three runs of step 1, and
``mirrored_run_columns`` those of two runs of step 2 followed by their
reversed negation, the doubled keys of a labeled type D class, read as
two runs (``gk.class_plan``); either takes a last run of length 0 just
below the run before it, so it also covers one run fewer.  The oracle
inserts no keys.  ``key_columns`` reads the column lengths off the
insertion, for any keys, and is the tests' reference for the closed
forms.  ``rs_shape`` and ``rs_tableau`` insert the
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


def three_run_columns(a: int, p: int, b: int, q: int, c: int, r: int) -> tuple[int, int, int]:
    """Column lengths of the insertion tableau of three strictly decreasing
    runs of step 1, with tops a, b, c and lengths p, q, r; the last ones
    are 0 when there are fewer columns.  Two runs are the first two with
    r = 0 and c = b - q.

    A weakly increasing subsequence takes at most one key per run, so no
    row is longer than three, and by Greene's theorem for weakly
    increasing subsequences the last column counts the most disjoint ones
    taking a key of each run, x <= y <= z.  The k smallest keys of the
    first run and the k largest of the third, with k consecutive keys of
    the second between them, are such k whenever any k are: the least of
    the lengths and of top - bottom + 1 over each earlier run's bottom and
    later run's top.  By Greene's theorem the first column is the longest
    strictly decreasing subsequence.  A longest one takes some run whole,
    and the longest of three chains is as long (checked exhaustively in
    the tests): the first run whole, then the keys of the second below it
    and of the third below both; the second whole, with the keys of the
    first above it and of the third below it; or the third whole, then the
    keys of the second above it and of the first above both.  The middle
    column holds the other keys."""
    lo_a, lo_b, lo_c = a - p + 1, b - q + 1, c - r + 1
    x, y = lo_a - lo_b, (lo_a if lo_a < lo_b else lo_b) - lo_c
    first = p + (0 if x < 0 else q if x > q else x) + (0 if y < 0 else r if y > r else y)
    x, y = a - b, lo_b - lo_c
    chain = q + (0 if x < 0 else p if x > p else x) + (0 if y < 0 else r if y > r else y)
    if chain > first:
        first = chain
    x, y = b - c, a - (b if b > c else c)
    chain = r + (0 if x < 0 else q if x > q else x) + (0 if y < 0 else p if y > p else y)
    if chain > first:
        first = chain
    x = b - lo_a if b < c else c - lo_a
    if c - lo_b < x:
        x = c - lo_b
    last = p if p < q else q
    if r < last:
        last = r
    if x < last:
        last = x + 1 if x >= 0 else 0
    return first, p + q + r - first - last, last


def mirrored_run_columns(a: int, p: int, b: int, q: int) -> tuple[int, int, int, int]:
    """Column lengths of the insertion tableau of the keys a, a - 2, ...,
    a - 2p + 2, then b, ..., b - 2q + 2 (a and b of one parity), then all
    of them negated in reverse order: the doubled keys of a labeled class
    of two blocks, or of one block with q = 0 and b = a - 2p.  The last
    ones are 0 when there are fewer columns.

    The keys share one parity, so halving them keeps their order and ties:
    they become u = R1 R2, R1 = [l1, A] and R2 = [l2, B] of step 1 with
    A = a >> 1 and B = b >> 1, then u's image under the mirror
    x -> e - 1 - x, e = 1 - a % 2, in reverse order.  A strictly
    decreasing subsequence is a chain of u above some threshold t, then
    the mirror of a chain of u above e - t: the least keys of the two
    chains of u sum to at least e.  By Greene's theorem the first column
    is the longest strictly decreasing subsequence, and it takes some run
    whole, by the mirror symmetry R1 or R2: R1, then the mirror of R1's
    keys at or above e - l1; or R1's keys above B and R2, then the mirror
    of a chain above e - l2, R1's keys there alone or R2's there with
    R1's above B.  The first two columns hold the largest union of two
    strictly decreasing subsequences: R1 and its mirror; a subsequence and
    its own mirror, the subsequence R1's keys above B then R2, or R2 then
    the mirror of R1's keys at or above e - l2; or R1 alone with R2 and
    then the mirror of the chain above e - l2 as before.  Chains split at the runs' ends are
    enough, but that these few candidates reach both largest values is
    checked exhaustively in the tests, not proven.  The last column counts
    the most disjoint weakly increasing subsequences taking a key of each
    run, as for three runs (``three_run_columns``), and the third holds
    the other keys."""
    A, B, e = a >> 1, b >> 1, 1 - (a & 1)
    l1, l2 = A - p + 1, B - q + 1
    m1, m2 = e - l1, e - l2  # the mirrored thresholds
    x = A - B
    above = 0 if x < 0 else p if x > p else x  # keys of R1 above B
    x = A - m1 + 1
    r1 = 0 if x < 0 else p if x > p else x  # keys of R1 at or above m1
    x, y = A - m2 + 1, B - m2 + 1
    r2, s2 = (0 if x < 0 else p if x > p else x), (0 if y < 0 else q if y > q else y)
    # a chain above m2: R1's keys alone, or R2's whole with R1's above B
    x = s2 + (r2 if r2 < above else above)
    h2 = r2 if r2 > x else x
    first = p + r1
    if q + above + h2 > first:
        first = q + above + h2
    two = 2 * q + 2 * (r2 if r2 > above else above)
    if two < 2 * p:
        two = 2 * p
    if two < p + q + h2:
        two = p + q + h2
    # top - bottom + 1 of R2 over R1, of R1# over R1 and of R2# over R2;
    # that of R2# (or R1#) over R1 (or R2) is the mean of the last two
    x = B - l1 + 1
    last = p if p < q else q
    if x < last:
        last = x
    x = m1 - l1 if m1 - l1 < m2 - l2 else m2 - l2
    if x < last:
        last = x
    if last < 0:
        last = 0
    return first, two - first, 2 * (p + q) - two - last, last


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
