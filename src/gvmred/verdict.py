"""Reducibility verdicts: GK-dimension oracle and closed-form criteria.

The oracle declares the scalar generalized Verma module reducible exactly
when the GK dimension of its simple quotient drops below the nilradical
dimension.  The closed-form criterion is one formula per Lie type: coset
tests on z1, z2 and z1 + z2 against integer bounds (and, in type D with
p = 1, whether z1 = -1).  It covers the diagonal z1 = z2 with no case of
its own.  Sweeps cross-check the two answers point by point.

Coset membership such as "z in c + Z>=0" is decided exactly: a scalar with
a nonzero symbol part never lies in a rational coset and never passes an
ordering threshold.  The tests read each parameter's decoded integer
fields (``num``, ``den`` and the ``terms`` triples of its symbol part,
stored when the scalar is built), so a criterion builds no scalar and
does no Fraction arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import ExactScalar, integer_difference, sum_int_at_least
from .gk import NonIntegralWeight, gk_dimension
from .rootdata import IndexOutOfRange, ParabolicSetup, WeightVector
from .tableaux import conjugate, rs_shape


class WrongLieType(ValueError):
    """A type-specific test was called for the other Lie type."""


class Verdict(NamedTuple):
    gk: int
    dim_u: int
    reducible: bool
    criterion: bool
    agree: bool


def _coerce(z) -> ExactScalar:
    return z if isinstance(z, ExactScalar) else ExactScalar(z)


def _is_int(z: ExactScalar) -> bool:
    return z.den == 1 and not z.terms


def _int_at_least(z: ExactScalar, bound: int) -> bool:
    """z is a plain integer >= bound."""
    return z.den == 1 and not z.terms and z.num >= bound


def _a(setup: ParabolicSetup, z1: ExactScalar, z2: ExactScalar) -> bool:
    # a type A setup has q <= n-1, so the tail n-q and outer_min are >= 1
    gap = setup.middle
    return (
        _int_at_least(z2, 1 - min(gap, setup.n - setup.q))
        or _int_at_least(z1, 1 - min(setup.p, gap))
        or sum_int_at_least(z1, z2, -gap - setup.outer_min + 1)
    )


def _d(setup: ParabolicSetup, z1: ExactScalar, z2: ExactScalar) -> bool:
    n = setup.n
    odd = n % 2 == 1
    if setup.p == 1:
        # q = n-1 or n
        if _int_at_least(z1, 0):
            return True
        z1_int = _is_int(z1)
        if (not z1_int and not _is_int(z2)) or (z1_int and z1.num == -1):
            if sum_int_at_least(z1, z2, -n + 2):
                return True
        return _int_at_least(z2, -n + 3 if odd else -n + 4)
    # p = n-1, q = n
    return (
        _int_at_least(z1, 0)
        or _int_at_least(z2, 0)
        or sum_int_at_least(z1, z2, -n + 1 if odd else -n + 2)
    )


def criterion(setup: ParabolicSetup, z1, z2) -> bool:
    """The closed form of the setup's Lie type at (z1, z2).

    It dispatches on the type only.  On the diagonal z1 = z2 the same
    coset tests give the paper's diagonal statements, so nothing compares
    the two parameters.
    """
    z1, z2 = _coerce(z1), _coerce(z2)
    if setup.lie.kind == "D":
        return _d(setup, z1, z2)
    return _a(setup, z1, z2)


def evaluate(setup: ParabolicSetup, z1, z2, memo: dict | None = None) -> Verdict:
    """Oracle verdict plus criterion answer and agreement flag.

    ``memo`` is handed to ``gk_dimension``; the criterion runs at every
    point.
    """
    gk = gk_dimension(setup, z1, z2, memo)
    du = setup.dim_u
    reducible = gk < du
    crit = criterion(setup, z1, z2)
    return Verdict(
        gk=gk, dim_u=du, reducible=reducible, criterion=crit, agree=reducible == crit
    )


def single_weight_reducible(n: int, p: int, z) -> bool:
    """Reducibility for the one-parameter weight z * xi_p in type A."""
    if not 1 <= p <= n - 1:
        raise IndexOutOfRange(f"p={p} out of range for sl({n})")
    return _int_at_least(_coerce(z), 1 - min(p, n - p))


def has_maximal_shape(setup: ParabolicSetup, weight: WeightVector) -> bool:
    """Whether the insertion tableau of an integral type A weight has the
    three-column shape with column lengths {p, q-p, n-q} (zeros dropped).

    For integral weights this holds exactly when the GK dimension attains
    the nilradical dimension.
    """
    if setup.lie.kind != "A":
        raise WrongLieType("the three-column shape test is for type A")
    entries = tuple(weight)
    if any(integer_difference(e, entries[0]) is None for e in entries[1:]):
        raise NonIntegralWeight("the three-column shape test needs an integral weight")
    columns = conjugate(rs_shape(entries))
    target = tuple(
        sorted((c for c in (setup.p, setup.middle, setup.n - setup.q) if c), reverse=True)
    )
    return columns == target
