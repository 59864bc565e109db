"""Root data for sl(n,C) and so(2n,C).

Weyl vector, fundamental weights, the shifted weight z1*xi_p + z2*xi_q + rho
for two-parameter scalar highest weights, nilpotency classification of
parabolic subalgebras by highest-root multiplicities, and the nilradical
dimension.

The oracle does not build the shifted weight entry by entry.  Its
coordinates fall into at most three runs on which the coefficients of
xi_p and xi_q are constant, so the weight is a run of integer rho entries
per block plus one offset per block (``BlockPlan``).
Type A uses the gl(n) representative xi_p = (1^p, 0^(n-p)),
rho = (n-1, ..., 1, 0): it differs from the sl(n) weight by a common
shift of every coordinate, which changes neither the integrality classes
(they depend on differences) nor any Robinson-Schensted shape (it depends
on relative order), and it has no 1/n denominators.

No offset is ever computed.  ``ParabolicSetup.gk_forms`` lists the
integer pairs (x, y) whose values (x*z1 + y*z2)/2 are the differences of
block offsets and, in type D, their sums and doubles; ``gk_table`` says
which value each pair of blocks reads.  These values decide every
integrality test on the blocks, so the oracle keys its memo on them and
reads a new key's class split off them.  ``gk_windows`` bounds, per form,
the rho thresholds it is ever compared with, so the memo key may clamp
each value to its window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

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

    # The criteria read these at every point, so they are computed once.
    @cached_property
    def middle(self) -> int:
        """Size of the Levi block between the two removed roots."""
        return self.q - self.p

    @cached_property
    def outer_min(self) -> int:
        return min(self.p, self.n - self.q)

    @cached_property
    def outer_max(self) -> int:
        return max(self.p, self.n - self.q)

    @cached_property
    def dim_u(self) -> int:
        """Dimension of the nilradical, computed on first use."""
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

    @cached_property
    def gk_forms(self) -> tuple[tuple[int, int], ...]:
        """The integer pairs (x, y) whose values (x*z1 + y*z2)/2 fix a
        point's classes and keys, built on first use.

        With block offsets o_b = (c1*z1 + c2*z2)/2: o_b - o_c for every pair
        of blocks and, in type D, o_b + o_c and 2*o_b.  Pairs that vanish
        are dropped, each is negated if needed so its first nonzero entry is
        positive, and repeats are dropped.
        """
        coefficients = self.block_plan.coefficients
        use_sum = self.lie.kind == "D"
        pairs = []
        for i, (a1, a2) in enumerate(coefficients):
            for b1, b2 in coefficients[i + 1 :]:
                pairs.append((a1 - b1, a2 - b2))
                if use_sum:
                    pairs.append((a1 + b1, a2 + b2))
            if use_sum:
                pairs.append((2 * a1, 2 * a2))
        forms = {}
        for x, y in pairs:
            if x or y:
                forms[(x, y) if (x, y) > (0, 0) else (-x, -y)] = None
        return tuple(forms)

    @cached_property
    def gk_table(self) -> tuple[PairTable, PairTable | None]:
        """``(differences, sums)``, built on first use.  ``differences[b][c]``
        is s*(i+1) when o_b - o_c is s times the value of ``gk_forms[i]``,
        0 when it vanishes; ``sums`` (None in type A) the same of o_b + o_c.
        """
        index = {form: i for i, form in enumerate(((0, 0), *self.gk_forms))}
        coefficients = self.block_plan.coefficients

        def reading(x: int, y: int) -> int:
            return index[x, y] if (x, y) >= (0, 0) else -index[-x, -y]

        def table(sign: int) -> PairTable:
            return tuple(
                tuple([reading(a1 + sign * c1, a2 + sign * c2) for c1, c2 in coefficients])
                for a1, a2 in coefficients
            )

        return table(-1), table(1) if self.lie.kind == "D" else None

    @cached_property
    def gk_windows(self) -> tuple[tuple[int, int], ...]:
        """Per form of ``gk_forms``, the window (lo, hi) its integer values
        may be clamped to in the memo key, built on first use.

        Two keys of block entries o_b + r and o_c + r' compare as o_b - o_c
        against r' - r, and, in a folded or doubled type D class, as
        o_b + o_c against -(r + r') (b = c for the doubled form).  So form i
        is only ever compared with the thresholds s*(r' - r) and
        s*(-(r + r')) of the table entries reading it with sign s, and two
        values clamped to [min threshold - 1, max threshold + 1] that agree
        agree with every threshold.  Thresholds are extremal at the run
        endpoints.
        """
        ends = [(min(run), max(run)) for run in self.block_plan.rho_runs]
        thresholds: dict[int, list[int]] = {}
        differences, sums = self.gk_table
        for b, (b_lo, b_hi) in enumerate(ends):
            for c, (c_lo, c_hi) in enumerate(ends):
                entries = [(differences[b][c], c_lo - b_hi, c_hi - b_lo)]
                if sums is not None:
                    entries.append((sums[b][c], -(b_hi + c_hi), -(b_lo + c_lo)))
                for reading, least, most in entries:
                    if reading:
                        s = 1 if reading > 0 else -1
                        thresholds.setdefault(abs(reading) - 1, []).extend((s * least, s * most))
        return tuple(
            (min(thresholds[i]) - 1, max(thresholds[i]) + 1) for i in range(len(self.gk_forms))
        )


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


# Per ordered pair of blocks: a signed index into ((0, 0),) + gk_forms.
PairTable = tuple[tuple[int, ...], ...]
