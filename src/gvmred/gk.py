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

A point's keys follow from its ``class_signature`` and the setup's rho
runs.  Every test in ``split_blocks``, the labeled test and every key
base reads one value (x*z1 + y*z2)/2 for a pair (x, y) of the setup's
``gk_forms``: a difference of two offsets, in type D also a sum or a
doubled offset.  So the signature, and the GK dimension, is a function of
those values, each an int when it is an integer and None otherwise
(``exact.form_values``, read off the parameters' decoded integer fields).
``gk_dimension`` keys its memo on that tuple and computes block offsets,
the signature and the insertion keys only for a key the memo has not
seen.  A memo belongs to one sweep of one setup.

The ExactScalar functions (``gk_dimension_of_weight``,
``integrality_classes``, ``fold_class``) run the same code on a dense
weight, one single-entry block per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import CosetClass, ExactScalar, form_values
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
# Per class: (labeled, ((block index, flipped, key base), ...)).
Signature = tuple[tuple[bool, tuple[tuple[int, bool, int], ...]], ...]


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


def class_signature(lie: LieType, offsets: Offsets) -> Signature:
    """The class structure of a point, on which its GK dimension depends.

    One entry per class: the labeled flag (a type D integral or
    half-integral class, whose keys are doubled) and, per member block in
    key order, the block index, the flipped flag and the integer base of
    the block's keys.  Two points of one setup with equal signatures have
    equal keys, so equal GK dimensions.
    """
    nums, scale, symbols = offsets
    use_sum = lie.kind == "D"
    signature = []
    for members in split_blocks(offsets, use_sum):
        h = members[0][0]
        head = nums[h]
        # labeled: the head, so the whole class, is integral or half-integral
        if use_sum and 2 * head % scale == 0 and (symbols is None or not any(symbols[h])):
            blocks = tuple([(b, flipped, 2 * nums[b] // scale) for b, flipped in members])
            signature.append((True, blocks))
        elif len(members) == 1:
            signature.append((False, ((h, False, 0),)))
        else:
            if use_sum:
                members = _folded(members)
            blocks = tuple(
                [
                    (b, True, -(nums[b] + head) // scale)
                    if flipped
                    else (b, False, (nums[b] - head) // scale)
                    for b, flipped in members
                ]
            )
            signature.append((False, blocks))
    return tuple(signature)


def _gk_from_signature(lie: LieType, signature: Signature, runs) -> int:
    """GK dimension of the weight with this class signature, block b
    holding the rho entries ``runs[b]``."""
    n = lie.n
    total = n * (n - 1) // 2 if lie.kind == "A" else n * n - n
    for labeled, blocks in signature:
        if labeled:
            keys = [base + 2 * r for b, _, base in blocks for r in runs[b]]
            total -= shape_even_depth_sum(key_shape(minus_double(keys)))
            continue
        keys = []
        for b, flipped, base in blocks:
            if flipped:
                keys.extend(base - r for r in reversed(runs[b]))
            else:
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
    signature = class_signature(lie, scaled_offsets(entries))
    return _gk_from_signature(lie, signature, ((0,),) * n)


def gk_dimension(setup: ParabolicSetup, z1, z2, memo: dict | None = None) -> int:
    """GK dimension at the scalar highest weight z1*xi_p + z2*xi_q.

    ``memo`` maps the point's form values (``exact.form_values`` over
    ``setup.gk_forms``) to GK dimensions; equal values give equal class
    signatures, so equal GK dimensions.  A sweep passes one dict for all
    its points, so a point whose values were seen before costs the values
    and a lookup, with no block offsets and no class split.  Without it
    the point gets a fresh dict.
    """
    if memo is None:
        memo = {}
    z1 = z1 if isinstance(z1, ExactScalar) else ExactScalar(z1)
    z2 = z2 if isinstance(z2, ExactScalar) else ExactScalar(z2)
    key = form_values(setup.gk_forms, z1, z2)
    gk = memo.get(key)
    if gk is None:
        plan = setup.block_plan
        signature = class_signature(setup.lie, block_offsets(plan, z1, z2))
        gk = memo[key] = _gk_from_signature(setup.lie, signature, plan.rho_runs)
    return gk
