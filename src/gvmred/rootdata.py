"""Root data for sl(n,C) and so(2n,C).

Two-step nilpotent non-maximal setups, decided by the removed simple
roots' multiplicities in the highest root, the nilradical dimension, and
the shifted weight z1*xi_p + z2*xi_q + rho for two-parameter scalar
highest weights.

The one weight built here is integer: the shifted weight's coordinates
fall into at most three runs on which the coefficients of xi_p and xi_q
are constant, so it is a run of integer rho entries per block plus one
offset per block (``BlockPlan``), written from closed formulas with
rho = (n-1, ..., 1, 0).  Type A uses the gl(n) representative
xi_p = (1^p, 0^(n-p)): it differs from the sl(n) weight by a common
shift of every coordinate, which changes neither the integrality classes
(they depend on differences) nor any Robinson-Schensted shape (it depends
on relative order), and it has no 1/n denominators.  ``shifted_weight``
reads its exact entries off the plan.

No offset is ever computed.  ``ParabolicSetup.gk_key`` lists the integer
pairs (x, y) whose values (x*z1 + y*z2)/2 are the differences of block
offsets and, in type D, their sums and doubles, says which value each
pair of blocks reads, and bounds, per form, the rho thresholds it is ever
compared with.  These values decide every integrality test on the
blocks, so the oracle keys its memo on them, each clamped to its window,
and reads a new key's class split off them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .exact import ExactScalar, as_scalar


class IndexOutOfRange(ValueError):
    """A simple-root or coordinate index outside the valid range."""


class InvalidParabolic(ValueError):
    """The requested parabolic is not two-step nilpotent non-maximal."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class FrozenRecord:
    """Equality, hash and repr over the fields named in ``_fields``, set once
    in ``__init__`` through ``__dict__``, where ``cached_property`` writes."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LieType(FrozenRecord):
    """kind "A" means sl(n,C) (rank n-1), kind "D" means so(2n,C).

    Weight vectors have length n in both cases.
    """

    _fields = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in ("A", "D"):
            raise ValueError(f"unknown Lie type kind {kind!r}")
        if kind == "A" and n < 2:
            raise ValueError("type A needs n >= 2")
        if kind == "D" and n < 4:
            raise ValueError("type D needs n >= 4")
        self.__dict__.update(kind=kind, n=n)

    @property
    def simple_root_count(self) -> int:
        return self.n - 1 if self.kind == "A" else self.n


def _multiplicity(lie: LieType, i: int) -> int:
    """The i-th simple root's multiplicity in the highest root: 1 for every
    root of sl(n); in so(2n), 1 for alpha_1, alpha_(n-1) and alpha_n, and 2
    otherwise."""
    return 1 if lie.kind == "A" or i in (1, lie.n - 1, lie.n) else 2


def two_step_pairs(lie: LieType) -> list[tuple[int, int]]:
    """Every (p, q) that ``ParabolicSetup`` accepts for ``lie``, in
    increasing order: the pairs of simple roots of highest-root
    multiplicity 1, whose nilradical is two-step nilpotent."""
    ones = [i for i in range(1, lie.simple_root_count + 1) if _multiplicity(lie, i) == 1]
    return list(combinations(ones, 2))


class ParabolicSetup(FrozenRecord):
    """A two-step nilpotent non-maximal parabolic: simple roots p < q removed.

    Construction rejects anything that is not two-step non-maximal; the
    raised error carries the computed step count.
    """

    _fields = ("lie", "p", "q")

    def __init__(self, lie: LieType, p: int, q: int):
        if not p < q:
            raise InvalidParabolic(f"need p < q, got p={p}, q={q}")
        for i in (p, q):
            if not 1 <= i <= lie.simple_root_count:
                raise IndexOutOfRange(f"simple root index {i} out of range for {lie}")
        # the nilradical's step is the sum of the removed roots' multiplicities;
        # p < q removes two roots, so the parabolic is never maximal
        step = _multiplicity(lie, p) + _multiplicity(lie, q)
        if step != 2:
            raise InvalidParabolic(
                f"parabolic removing ({p},{q}) from {lie.kind}, n={lie.n} "
                f"is {step}-step nilpotent",
                step=step,
            )
        self.__dict__.update(lie=lie, p=p, q=q)

    @property
    def n(self) -> int:
        return self.lie.n

    @cached_property
    def half_lines(self) -> tuple[int, int, int]:
        """The criterion's bounds (b1, b2, b12), computed on first use: the
        module is reducible exactly when z1 is an integer >= b1, z2 one
        >= b2, or z1 + z2 one >= b12."""
        n, p, q = self.n, self.p, self.q
        if self.lie.kind == "A":
            g = q - p
            return 1 - min(p, g), 1 - min(g, n - q), 1 - g - min(p, n - q)
        if p == 1:  # q = n-1 or n
            return 0, 4 - n - n % 2, 2 - n
        return 0, 0, 2 - n - n % 2  # p = n-1, q = n

    @cached_property
    def dim_u(self) -> int:
        """Dimension of the nilradical, computed on first use."""
        n, p, q = self.n, self.p, self.q
        if self.lie.kind == "A":
            return q * (n - q) + p * (q - p)
        return (n * n + n - 2) // 2

    @cached_property
    def block_plan(self) -> BlockPlan:
        """The shifted weight's coordinates in blocks, built on first use.

        rho = (n-1, ..., 1, 0) in both types.  The doubled coefficients of
        xi_i are 2 on the first i coordinates in type A (the gl(n)
        representative) and in type D for i <= n-2; those of the type D
        spin weights are 1 everywhere, except -1 last in xi_(n-1).
        """
        n = self.n

        def doubled(i: int) -> list[int]:
            if self.lie.kind == "A" or i <= n - 2:
                return [2] * i + [0] * (n - i)
            return [1] * (n - 1) + [-1 if i == n - 1 else 1]

        coefficients: list[tuple[int, int]] = []
        runs: list[list[int]] = []
        for r, pair in zip(range(n - 1, -1, -1), zip(doubled(self.p), doubled(self.q))):
            if coefficients and coefficients[-1] == pair:
                runs[-1].append(r)
            else:
                coefficients.append(pair)
                runs.append([r])
        return BlockPlan(tuple(coefficients), tuple(tuple(run) for run in runs))

    @cached_property
    def gk_key(self) -> GKKey:
        """The forms, windows and pair tables of the GK memo, built on first
        use in one walk over the ordered pairs of blocks (b, c).

        With block offsets o_b = (c1*z1 + c2*z2)/2, a pair reads o_b - o_c
        and, in type D, o_b + o_c (2*o_b when b = c).  A nonzero one is s
        times the value (x*z1 + y*z2)/2 of a sign-canonical pair (x, y)
        (first nonzero entry positive), form i in order of first use, and
        the pair's table entry is s*(i+1); a vanishing one reads 0.  Keys of
        blocks b and c compare o_b - o_c against r' - r and o_b + o_c
        against -(r + r'), for rho entries r of b and r' of c.  So form i
        only meets the thresholds s*(r' - r) and s*(-(r + r')) of the pairs
        reading it, extremal at the run endpoints; two of its values that
        agree once clamped to one past those extremes compare alike with
        every threshold.

        The criterion's half-lines are on the forms (2, 0), (0, 2) and
        (2, 2), whose values are z1, z2 and z1 + z2, and which every setup
        reads.  Each bound b of ``half_lines`` is recorded with its form's
        index, and that form's window is widened, where it must be, until
        lo < b <= hi: a value is then >= b exactly when it is once clamped,
        so every point of one clamped key gets one criterion answer.
        """
        plan = self.block_plan
        ends = [(run[-1], run[0]) for run in plan.rho_runs]  # runs decrease
        signs = (-1, 1) if self.lie.kind == "D" else (-1,)
        tables = [[[0] * len(ends) for _ in ends] for _ in signs]
        index: dict[tuple[int, int], int] = {}
        thresholds: dict[tuple[int, int], list[int]] = {}
        for b, ((b1, b2), (b_lo, b_hi)) in enumerate(zip(plan.coefficients, ends)):
            for c, ((c1, c2), (c_lo, c_hi)) in enumerate(zip(plan.coefficients, ends)):
                for sign, table in zip(signs, tables):
                    x, y = b1 + sign * c1, b2 + sign * c2
                    if not (x or y):
                        continue
                    s = 1 if (x, y) > (0, 0) else -1
                    form = (s * x, s * y)
                    table[b][c] = s * (index.setdefault(form, len(index)) + 1)
                    # the extremes of r' - r, or of -(r + r')
                    if sign < 0:
                        least, most = c_lo - b_hi, c_hi - b_lo
                    else:
                        least, most = -(b_hi + c_hi), -(b_lo + c_lo)
                    thresholds.setdefault(form, []).extend((s * least, s * most))
        differences, *sums = [tuple(map(tuple, table)) for table in tables]
        windows = [(min(t) - 1, max(t) + 1) for t in thresholds.values()]
        half_lines = tuple(
            (index[form], b) for form, b in zip(((2, 0), (0, 2), (2, 2)), self.half_lines)
        )
        for i, b in half_lines:
            lo, hi = windows[i]
            windows[i] = min(lo, b - 1), max(hi, b)
        return GKKey(
            forms=tuple(index),
            windows=tuple(windows),
            differences=differences,
            sums=sums[0] if sums else None,
            half_lines=half_lines,
        )

    @cached_property
    def class_plans(self) -> dict:
        """The GK oracle's class plans by None pattern of the form values
        over ``gk_key.forms``, one entry per pattern met, each built by
        ``gk.class_plan`` on the pattern's first use (``gk.plan_of``).  A
        plan holds the constant classes' deficit and the other classes'
        parts, nothing that depends on a point's values."""
        return {}


def shifted_weight(setup: ParabolicSetup, z1, z2) -> tuple[ExactScalar, ...]:
    """The shifted weight z1*xi_p + z2*xi_q + rho as exact scalars, read off
    the block plan.  Type A subtracts the entries' mean,
    (p*z1 + q*z2)/n + (n-1)/2, from the gl(n) representative, which leaves
    the sl(n) weight."""
    z1, z2 = as_scalar(z1), as_scalar(z2)
    n = setup.n
    m1, m2, m0 = 0, 0, 0
    if setup.lie.kind == "A":
        m1, m2, m0 = Fraction(setup.p, n), Fraction(setup.q, n), Fraction(n - 1, 2)
    plan = setup.block_plan
    entries: list[ExactScalar] = []
    for (c1, c2), run in zip(plan.coefficients, plan.rho_runs):
        offset = z1 * (Fraction(c1, 2) - m1) + z2 * (Fraction(c2, 2) - m2)
        entries.extend([offset + (r - m0) for r in run])
    return tuple(entries)


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


# Per ordered pair of blocks: a signed index into ((0, 0),) + forms.
PairTable = tuple[tuple[int, ...], ...]


class GKKey(NamedTuple):
    """A setup's GK memo tables (``ParabolicSetup.gk_key``).

    ``forms`` are the nonzero sign-canonical integer pairs (x, y) whose
    values (x*z1 + y*z2)/2 key the memo, and ``windows[i]`` the (lo, hi)
    that form i's integer values are clamped to there.
    ``differences[b][c]`` is s*(i+1) when o_b - o_c is s times the value
    of form i, 0 when it vanishes; ``sums`` (None in type A) the same of
    o_b + o_c.  ``half_lines`` holds (i, b) for the criterion's z1, z2 and
    z1 + z2, form i's value being that parameter and b its bound, with
    lo < b <= hi for form i's window.
    """

    forms: tuple[tuple[int, int], ...]
    windows: tuple[tuple[int, int], ...]
    differences: PairTable
    sums: PairTable | None
    half_lines: tuple[tuple[int, int], ...]
