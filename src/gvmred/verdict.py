"""Reducibility verdicts: GK-dimension oracle and closed-form criteria.

The oracle declares the scalar generalized Verma module reducible exactly
when the GK dimension of its simple quotient drops below the nilradical
dimension.  The closed-form criteria evaluate the case trees over the two
parameters directly; sweeps cross-check the two answers point by point.

Coset membership such as "z in c + Z>=0" is decided exactly: a scalar with
a nonzero symbol part never lies in a rational coset and never passes an
ordering threshold.  The tests read each parameter's decoded integer
fields (``num``, ``den`` and the ``terms`` triples of its symbol part,
stored when the scalar is built), so a criterion builds no scalar and
does no Fraction arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import ExactScalar, scalars_equal, sum_int_at_least
from .gk import NonIntegralWeight, gk_dimension, integrality_classes
from .rootdata import IndexOutOfRange, ParabolicSetup, WeightVector
from .tableaux import conjugate, rs_shape


class WrongLieType(ValueError):
    """A criterion was called for the other Lie type."""


class EqualParameters(ValueError):
    """The off-diagonal criterion was called with z1 = z2."""


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


def _half_step_at_least(z: ExactScalar, twice_bound: int) -> bool:
    """z lies in twice_bound/2 + (1/2)Z>=0."""
    if z.terms:
        return False
    num, den = z.num, z.den
    return 2 * num % den == 0 and 2 * num >= twice_bound * den


def _int_step_at_least(z: ExactScalar, twice_bound: int) -> bool:
    """z lies in twice_bound/2 + Z>=0."""
    if z.terms:
        return False
    num, den = z.num, z.den
    gap = 2 * num - twice_bound * den
    return gap % (2 * den) == 0 and gap >= 0


def _a_diagonal(setup: ParabolicSetup, z: ExactScalar) -> bool:
    gap, lo, hi = setup.middle, setup.outer_min, setup.outer_max
    if _is_int(z):
        if lo >= gap - 1:
            half_lo = (lo + 1) // 2 if gap % 2 == 0 else lo // 2
            first = -half_lo - (gap - 1) // 2
        elif lo > 0:
            first = -max((gap + lo + 1) // 2, hi) + 1 if hi < gap else -gap + 1
        else:
            first = -min(hi, gap) + 1
        return z.num >= first
    # non-integral: reducible only for half-integers past the open boundary
    if lo < 1 or z.terms or z.den != 2:
        return False
    return z.num > -(gap + lo)


def _a_offdiagonal(setup: ParabolicSetup, z1: ExactScalar, z2: ExactScalar) -> bool:
    p, gap = setup.p, setup.middle
    tail = setup.n - setup.q
    if tail == 0:
        return _int_at_least(z1, 1 - min(p, gap))
    return (
        _int_at_least(z2, 1 - min(gap, tail))
        or _int_at_least(z1, 1 - min(p, gap))
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
        if not z1_int and scalars_equal(z1, z2):
            # z1 in (-n)//2 + 3/2 + Z>=0
            if _int_step_at_least(z1, 2 * ((-n) // 2) + 3):
                return True
        return _int_at_least(z2, -n + 3 if odd else -n + 4)
    # p = n-1, q = n
    if _int_at_least(z1, 0) or _int_at_least(z2, 0):
        return True
    if scalars_equal(z1, z2):
        # z1 in (-n+1)/2 (odd n) or (-n+2)/2 (even n) + (1/2)Z>=0
        if _half_step_at_least(z1, -n + 1 if odd else -n + 2):
            return True
    return sum_int_at_least(z1, z2, -n + 1 if odd else -n + 2)


def criterion_a_diagonal(setup: ParabolicSetup, z) -> bool:
    """Type A closed form on the diagonal z1 = z2 = z."""
    if setup.lie.kind != "A":
        raise WrongLieType("diagonal type A criterion needs a type A setup")
    return _a_diagonal(setup, _coerce(z))


def criterion_a_offdiagonal(setup: ParabolicSetup, z1, z2) -> bool:
    """Type A closed form for z1 != z2 (consolidated coset form)."""
    if setup.lie.kind != "A":
        raise WrongLieType("off-diagonal type A criterion needs a type A setup")
    z1, z2 = _coerce(z1), _coerce(z2)
    if scalars_equal(z1, z2):
        raise EqualParameters("off-diagonal criterion needs z1 != z2")
    return _a_offdiagonal(setup, z1, z2)


def criterion_d(setup: ParabolicSetup, z1, z2) -> bool:
    """Type D closed form, both removed-root patterns, both parities."""
    if setup.lie.kind != "D":
        raise WrongLieType("type D criterion needs a type D setup")
    return _d(setup, _coerce(z1), _coerce(z2))


def criterion(setup: ParabolicSetup, z1, z2) -> bool:
    """Dispatch to the matching closed form for the setup and parameters;
    the parameters are coerced and compared once."""
    z1, z2 = _coerce(z1), _coerce(z2)
    if setup.lie.kind == "D":
        return _d(setup, z1, z2)
    if scalars_equal(z1, z2):
        return _a_diagonal(setup, z1)
    return _a_offdiagonal(setup, z1, z2)


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
    if len(integrality_classes(entries, setup.lie).classes) != 1:
        raise NonIntegralWeight("the three-column shape test needs an integral weight")
    columns = conjugate(rs_shape(entries))
    target = tuple(
        sorted((c for c in (setup.p, setup.middle, setup.n - setup.q) if c), reverse=True)
    )
    return columns == target
