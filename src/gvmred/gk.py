"""Integrality classes of a shifted weight and Gelfand-Kirillov dimension.

The entries of the shifted weight are partitioned into maximal classes:
for type A two entries are related when their difference is an integer,
for type D when their difference or their sum is.  Each class keeps the
original entry order.  The GK dimension of the simple quotient is the
type's triangular bound minus shape statistics of the classes.

Everything runs on blocks (``rootdata.BlockPlan``): runs of integer rho
entries sharing one offset.  Entries of one block differ by integers, so
classes are unions of blocks, found by testing at most three offsets
rather than every pair of entries.  Within a class every entry shares the
head block's symbol part and fractional part, up to sign, so the
Robinson-Schensted keys are integers.  With offsets ``N_b / S``:

* a difference class has keys ``(N_b - N_head) / S + rho_j``;
* a type D class that is neither integral nor half-integral is folded:
  blocks joined to the head by an integral sum are negated and appended
  in reverse order, with keys ``-(N_b + N_head) / S - rho_j``;
* the integral and half-integral type D classes are doubled with reversed
  negation, with keys ``2 * entry``.

The ExactScalar functions (``gk_dimension_of_weight``,
``integrality_classes``, ``fold_class``) run the same code on a dense
weight, one single-entry block per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import CosetClass
from .rootdata import LieType, Offsets, ParabolicSetup, block_offsets, scaled_offsets
from .tableaux import (
    ScalarSequence,
    key_shape,
    minus_double,
    shape_depth_sum,
    shape_even_depth_sum,
)

# Unused here; kept importable from this module, where perfbench/tracing.py
# wraps them.
from .exact import sub_is_integer, sum_is_integer  # noqa: F401
from .rootdata import shifted_weight  # noqa: F401

Member = tuple[int, bool]  # (block index, joined to the class head by a sum)


class NonIntegralWeight(ValueError):
    """A weight required to be integral has several integrality classes."""


@dataclass(frozen=True)
class ClassDecomposition:
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


def split_blocks(offsets: Offsets, use_sum: bool) -> list[list[Member]]:
    """Blocks grouped into integrality classes, in order of first occurrence.

    A block joins the first class whose head (first block) has an offset
    differing from its own by an integer, or, when ``use_sum``, summing
    with it to an integer; sums mark the member as flipped.  The relation
    x = +-y mod Z is an equivalence, so testing heads suffices.
    """
    nums, scale, symbols = offsets
    negated = None
    if use_sum and symbols is not None:
        negated = [tuple(-c for c in sym) for sym in symbols]
    classes: list[list[Member]] = []
    for b, num in enumerate(nums):
        for members in classes:
            h = members[0][0]
            if (num - nums[h]) % scale == 0 and (
                symbols is None or symbols[b] == symbols[h]
            ):
                members.append((b, False))
                break
            if use_sum and (num + nums[h]) % scale == 0 and (
                negated is None or symbols[b] == negated[h]
            ):
                members.append((b, True))
                break
        else:
            classes.append([(b, False)])
    return classes


def _coset(offsets: Offsets, block: int) -> CosetClass:
    nums, scale, symbols = offsets
    if symbols is not None and any(symbols[block]):
        return CosetClass.OTHER
    if nums[block] % scale == 0:
        return CosetClass.INTEGER
    if 2 * nums[block] % scale == 0:
        return CosetClass.HALF_INTEGER
    return CosetClass.OTHER


def _folded(members: list[Member]) -> list[Member]:
    """Difference members in order, then the flipped ones reversed."""
    return [m for m in members if not m[1]] + [m for m in reversed(members) if m[1]]


def _gk_from_blocks(lie: LieType, offsets: Offsets, runs) -> int:
    """GK dimension of the weight whose block b is ``offsets[b] + runs[b]``."""
    nums, scale, _ = offsets
    n = lie.n
    if lie.kind == "A":
        total = n * (n - 1) // 2
        for members in split_blocks(offsets, False):
            head = nums[members[0][0]]
            keys = [(nums[b] - head) // scale + r for b, _ in members for r in runs[b]]
            total -= shape_depth_sum(key_shape(keys))
        return total
    total = n * n - n
    for members in split_blocks(offsets, True):
        h = members[0][0]
        if _coset(offsets, h) is not CosetClass.OTHER:
            keys = [2 * nums[b] // scale + 2 * r for b, _ in members for r in runs[b]]
            total -= shape_even_depth_sum(key_shape(minus_double(keys)))
            continue
        head = nums[h]
        keys = []
        for b, flipped in _folded(members):
            if flipped:
                base = -(nums[b] + head) // scale
                keys.extend(base - r for r in reversed(runs[b]))
            else:
                base = (nums[b] - head) // scale
                keys.extend(base + r for r in runs[b])
        total -= shape_depth_sum(key_shape(keys))
    return total


def integrality_classes(entries, lie: LieType) -> ClassDecomposition:
    entries = tuple(entries)
    use_sum = lie.kind == "D"
    offsets = scaled_offsets(entries)
    split = split_blocks(offsets, use_sum)
    classes = tuple(tuple(entries[b] for b, _ in members) for members in split)
    if not use_sum:
        return ClassDecomposition(classes=classes)
    labeled = {CosetClass.INTEGER: None, CosetClass.HALF_INTEGER: None}
    others = []
    for members, group in zip(split, classes):
        kind = _coset(offsets, members[0][0])
        if kind is CosetClass.OTHER:
            others.append(group)
        else:
            labeled[kind] = group
    return ClassDecomposition(
        classes=classes,
        integer_class=labeled[CosetClass.INTEGER],
        half_class=labeled[CosetClass.HALF_INTEGER],
        other_classes=tuple(others),
    )


def fold_class(x: ScalarSequence) -> ScalarSequence:
    """Rearrange a mixed difference-or-sum class into one difference class.

    Entries whose difference with the first entry is integral are kept in
    order; the remaining entries (integral sum with the first) are negated
    and appended in reversed order.  The result is totally ordered: all
    entries share one symbol part.
    """
    if not x:
        return ()
    split = split_blocks(scaled_offsets(x), use_sum=True)
    if len(split) > 1:
        stray = x[split[1][0][0]]
        raise ValueError(f"{stray} is unrelated to {x[0]}; not a single class")
    return tuple(-x[b] if flipped else x[b] for b, flipped in _folded(split[0]))


def is_integral(weight, lie: LieType) -> bool:
    """Integral in the weight-lattice sense: a single labeled class.

    Type A: all pairwise differences integral.  Type D: all entries in Z
    or all in 1/2 + Z.
    """
    dec = integrality_classes(tuple(weight), lie)
    if len(dec.classes) != 1:
        return False
    if lie.kind == "A":
        return True
    return not dec.other_classes


def gk_dimension_of_weight(weight, lie: LieType) -> int:
    """GK dimension of the simple module with this shifted weight."""
    entries = tuple(weight)
    n = lie.n
    if len(entries) != n:
        raise ValueError(f"weight has length {len(entries)}, expected {n}")
    return _gk_from_blocks(lie, scaled_offsets(entries), ((0,),) * n)


def gk_dimension(setup: ParabolicSetup, z1, z2) -> int:
    """GK dimension at the scalar highest weight z1*xi_p + z2*xi_q."""
    plan = setup.block_plan
    return _gk_from_blocks(setup.lie, block_offsets(plan, z1, z2), plan.rho_runs)
