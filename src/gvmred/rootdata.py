"""Root data for sl(n,C) and so(2n,C).

Weyl vector, fundamental weights, the shifted weight z1*xi_p + z2*xi_q + rho
for two-parameter scalar highest weights, nilpotency classification of
parabolic subalgebras by highest-root multiplicities, and the nilradical
dimension.

The oracle does not build the shifted weight entry by entry.  Its
coordinates fall into at most three runs on which the coefficients of
xi_p and xi_q are constant, so the weight is a run of integer rho entries
per block plus one offset per block (``BlockPlan``, ``block_offsets``).
Type A uses the gl(n) representative xi_p = (1^p, 0^(n-p)),
rho = (n-1, ..., 1, 0): it differs from the sl(n) weight by a common
shift of every coordinate, which changes neither the integrality classes
(they depend on differences) nor any Robinson-Schensted shape (it depends
on relative order), and it has no 1/n denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import ExactScalar


class IndexOutOfRange(ValueError):
    """A simple-root or coordinate index outside the valid range."""


class InvalidParabolic(ValueError):
    """The requested parabolic is not two-step nilpotent non-maximal."""

    def __init__(self, message: str, step: int | None = None, maximal: bool | None = None):
        super().__init__(message)
        self.step = step
        self.maximal = maximal


@dataclass(frozen=True)
class LieType:
    """kind "A" means sl(n,C) (rank n-1), kind "D" means so(2n,C).

    Weight vectors have length n in both cases.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("A", "D"):
            raise ValueError(f"unknown Lie type kind {self.kind!r}")
        if self.kind == "A" and self.n < 2:
            raise ValueError("type A needs n >= 2")
        if self.kind == "D" and self.n < 4:
            raise ValueError("type D needs n >= 4")

    @property
    def simple_root_count(self) -> int:
        return self.n - 1 if self.kind == "A" else self.n


@dataclass(frozen=True)
class WeightVector:
    entries: tuple[ExactScalar, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ExactScalar]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


@lru_cache(maxsize=None)
def weyl_vector(lie: LieType) -> WeightVector:
    """Half the sum of positive roots, in e_1..e_n coordinates."""
    n = lie.n
    if lie.kind == "A":
        entries = tuple(ExactScalar(Fraction(n - 2 * i + 1, 2)) for i in range(1, n + 1))
    else:
        entries = tuple(ExactScalar(n - i) for i in range(1, n + 1))
    return WeightVector(entries)


@lru_cache(maxsize=None)
def fundamental_weight(lie: LieType, i: int) -> WeightVector:
    """The fundamental weight dual to the i-th simple coroot."""
    n = lie.n
    if not 1 <= i <= lie.simple_root_count:
        raise IndexOutOfRange(f"fundamental weight index {i} out of range for {lie}")
    if lie.kind == "A":
        head, tail = Fraction(n - i, n), Fraction(-i, n)
        entries = tuple(ExactScalar(head if j < i else tail) for j in range(n))
    elif i <= n - 2:
        entries = tuple(ExactScalar(1 if j < i else 0) for j in range(n))
    else:
        half = Fraction(1, 2)
        last = -half if i == n - 1 else half
        entries = tuple(ExactScalar(half) for _ in range(n - 1)) + (ExactScalar(last),)
    return WeightVector(entries)


@dataclass(frozen=True)
class NilpotencyReport:
    step: int
    maximal: bool


def highest_root_multiplicity(lie: LieType, i: int) -> int:
    """Multiplicity of the i-th simple root in the highest root."""
    if not 1 <= i <= lie.simple_root_count:
        raise IndexOutOfRange(f"simple root index {i} out of range for {lie}")
    if lie.kind == "A":
        return 1
    return 1 if i in (1, lie.n - 1, lie.n) else 2


def classify_parabolic(lie: LieType, removed: Iterable[int]) -> NilpotencyReport:
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


@dataclass(frozen=True)
class ParabolicSetup:
    """A two-step nilpotent non-maximal parabolic: simple roots p < q removed.

    Construction rejects anything that is not two-step non-maximal; the
    raised error carries the computed step count.
    """

    lie: LieType
    p: int
    q: int

    def __post_init__(self):
        if not self.p < self.q:
            raise InvalidParabolic(f"need p < q, got p={self.p}, q={self.q}")
        report = classify_parabolic(self.lie, (self.p, self.q))
        if report.maximal or report.step != 2:
            raise InvalidParabolic(
                f"parabolic removing ({self.p},{self.q}) from {self.lie.kind}, n={self.lie.n} "
                f"is {report.step}-step nilpotent"
                + (" and maximal" if report.maximal else ""),
                step=report.step,
                maximal=report.maximal,
            )

    @property
    def n(self) -> int:
        return self.lie.n

    @property
    def middle(self) -> int:
        """Size of the Levi block between the two removed roots."""
        return self.q - self.p

    @property
    def outer_min(self) -> int:
        return min(self.p, self.n - self.q)

    @property
    def outer_max(self) -> int:
        return max(self.p, self.n - self.q)

    @property
    def dim_u(self) -> int:
        return dim_nilradical(self)

    @cached_property
    def block_plan(self) -> BlockPlan:
        """The shifted weight's coordinates in blocks, built on first use.

        Type A: blocks [0,p), [p,q), [q,n) of the gl(n) representative.
        Type D: runs of the doubled so(2n) fundamental weight coefficients.
        """
        lie, n = self.lie, self.n
        if lie.kind == "A":
            pairs = [(2 * (j < self.p), 2 * (j < self.q)) for j in range(n)]
            rho = [n - 1 - j for j in range(n)]
        else:
            xi_p = fundamental_weight(lie, self.p)
            xi_q = fundamental_weight(lie, self.q)
            pairs = [(int(2 * a.rational), int(2 * b.rational)) for a, b in zip(xi_p, xi_q)]
            rho = [int(r.rational) for r in weyl_vector(lie)]
        coefficients: list[tuple[int, int]] = []
        runs: list[list[int]] = []
        for pair, r in zip(pairs, rho):
            if coefficients and coefficients[-1] == pair:
                runs[-1].append(r)
            else:
                coefficients.append(pair)
                runs.append([r])
        return BlockPlan(tuple(coefficients), tuple(tuple(run) for run in runs))


def dim_nilradical(setup: ParabolicSetup) -> int:
    """Dimension of the nilradical of the parabolic."""
    n, p, q = setup.n, setup.p, setup.q
    if setup.lie.kind == "A":
        return q * (n - q) + p * (q - p)
    return (n * n + n - 2) // 2


def shifted_weight(setup: ParabolicSetup, z1, z2) -> WeightVector:
    """The shifted weight z1*xi_p + z2*xi_q + rho as exact scalars."""
    z1 = z1 if isinstance(z1, ExactScalar) else ExactScalar(z1)
    z2 = z2 if isinstance(z2, ExactScalar) else ExactScalar(z2)
    xi_p = fundamental_weight(setup.lie, setup.p)
    xi_q = fundamental_weight(setup.lie, setup.q)
    rho = weyl_vector(setup.lie)
    entries = tuple(
        z1 * a.rational + z2 * b.rational + r
        for a, b, r in zip(xi_p, xi_q, rho)
    )
    return WeightVector(entries)


# ---------------------------------------------------------------------------
# block form of the shifted weight


class BlockPlan(NamedTuple):
    """Maximal runs of coordinates with equal (xi_p, xi_q) coefficients.

    ``coefficients[b]`` holds block b's coefficients doubled, so they are
    integers; ``rho_runs[b]`` its integer rho entries, in coordinate order.
    Block b's entries of the shifted weight are
    ``(c1*z1 + c2*z2)/2 + r`` for ``(c1, c2) = coefficients[b]`` and r in
    ``rho_runs[b]``.
    """

    coefficients: tuple[tuple[int, int], ...]
    rho_runs: tuple[tuple[int, ...], ...]


class Offsets(NamedTuple):
    """Exact values ``(nums[i] + symbols[i] . s) / scale`` over integers.

    ``symbols`` is None when every value is rational; otherwise each entry
    is an integer vector of symbol coefficients, all on one common scale of
    their own, so equal vectors mean equal symbol parts and a negated
    vector the negated symbol part.
    """

    nums: tuple[int, ...]
    scale: int
    symbols: tuple[tuple[int, ...], ...] | None


def scaled_offsets(values: Sequence) -> Offsets:
    """Exact scalars (or ints, Fractions) as integers over common scales."""
    values = [v if isinstance(v, ExactScalar) else ExactScalar(v) for v in values]
    scale = lcm(*(v.rational.denominator for v in values))
    nums = tuple(v.rational.numerator * (scale // v.rational.denominator) for v in values)
    if not any(v.generic for v in values):
        return Offsets(nums, scale, None)
    return Offsets(nums, scale, _symbol_vectors([v.generic for v in values]))


def _symbol_vectors(parts) -> tuple[tuple[int, ...], ...]:
    """Canonical symbol parts as integer vectors over the sorted union of
    their names, all on one scale."""
    coeffs = [dict(g) for g in parts]
    names = sorted(set().union(*coeffs))
    scale = lcm(*(c.denominator for g in parts for _, c in g))
    return tuple(
        tuple(
            c[name].numerator * (scale // c[name].denominator) if name in c else 0
            for name in names
        )
        for c in coeffs
    )


def block_offsets(plan: BlockPlan, z1, z2) -> Offsets:
    """Each block's offset (c1*z1 + c2*z2)/2, computed once per point.

    The pair is put over a common denominator on the integers; a point
    with two rational parameters skips the symbol work.
    """
    z1 = z1 if isinstance(z1, ExactScalar) else ExactScalar(z1)
    z2 = z2 if isinstance(z2, ExactScalar) else ExactScalar(z2)
    r1, r2 = z1.rational, z2.rational
    n1, d1, n2, d2 = r1.numerator, r1.denominator, r2.numerator, r2.denominator
    if d1 == d2:
        scale = d1
    else:
        g = gcd(d1, d2)
        scale = d1 // g * d2
        n1 *= d2 // g
        n2 *= d1 // g
    coefficients = plan.coefficients
    nums = tuple([c1 * n1 + c2 * n2 for c1, c2 in coefficients])
    g1, g2 = z1.generic, z2.generic
    if not g1 and not g2:
        return Offsets(nums, 2 * scale, None)
    if len(g1) == 1 and len(g2) == 1 and g1[0][0] == g2[0][0]:
        # one shared symbol, as at the coupled points (a + tau, b - tau)
        (_, a), (_, b) = g1[0], g2[0]
        pairs = ((a.numerator * b.denominator, b.numerator * a.denominator),)
    else:
        pairs = tuple(zip(*_symbol_vectors((g1, g2))))
    symbols = tuple(
        [tuple([c1 * a + c2 * b for a, b in pairs]) for c1, c2 in coefficients]
    )
    return Offsets(nums, 2 * scale, symbols)
