"""Closed forms and shape counts that only the tests use.

``single_weight_reducible`` is the maximal-parabolic case of the
criterion, kept as a reference for the two-parameter half-lines;
``even_odd_counts`` splits a shape's boxes by parity, for the type D
shape checks.
"""

from __future__ import annotations

from gvmred import IndexOutOfRange
from gvmred.verdict import _coerce, _int_at_least


def single_weight_reducible(n: int, p: int, z) -> bool:
    """Reducibility for the one-parameter weight z * xi_p in type A."""
    if not 1 <= p <= n - 1:
        raise IndexOutOfRange(f"p={p} out of range for sl({n})")
    return _int_at_least(_coerce(z), 1 - min(p, n - p))


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
