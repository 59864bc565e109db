"""Reducibility verdicts: GK-dimension oracle and closed-form criteria.

The oracle declares the scalar generalized Verma module reducible exactly
when the GK dimension of its simple quotient drops below the nilradical
dimension.  The closed-form criteria evaluate the case trees over the two
parameters directly; sweeps cross-check the two answers point by point.

Coset membership such as "z in c + Z>=0" is decided exactly: a scalar with
a nonzero symbol part never lies in a rational coset and never passes an
ordering threshold.  The tests read the numerator and denominator of each
parameter's rational part and its canonical symbol tuple, so a criterion
builds no scalar and does no Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactScalar, scalars_equal, sum_int_at_least
from .gk import NonIntegralWeight, gk_dimension, is_integral
from .rootdata import IndexOutOfRange, ParabolicSetup, WeightVector, dim_nilradical
from .tableaux import conjugate, rs_shape


class WrongLieType(ValueError):
    """A criterion was called for the other Lie type."""


class EqualParameters(ValueError):
    """The off-diagonal criterion was called with z1 = z2."""


@dataclass(frozen=True)
class Verdict:
    gk: int
    dim_u: int
    reducible: bool
    criterion: bool | None = None
    agree: bool | None = None


def _coerce(z) -> ExactScalar:
    return z if isinstance(z, ExactScalar) else ExactScalar(z)


def _is_int(z: ExactScalar) -> bool:
    return not z.generic and z.rational.denominator == 1


def _int_at_least(z: ExactScalar, bound: int) -> bool:
    """z is a plain integer >= bound."""
    return (
        not z.generic and z.rational.denominator == 1 and z.rational.numerator >= bound
    )


def _half_step_at_least(z: ExactScalar, twice_bound: int) -> bool:
    """z lies in twice_bound/2 + (1/2)Z>=0."""
    if z.generic:
        return False
    num, den = z.rational.numerator, z.rational.denominator
    return 2 * num % den == 0 and 2 * num >= twice_bound * den


def _int_step_at_least(z: ExactScalar, twice_bound: int) -> bool:
    """z lies in twice_bound/2 + Z>=0."""
    if z.generic:
        return False
    num, den = z.rational.numerator, z.rational.denominator
    gap = 2 * num - twice_bound * den
    return gap % (2 * den) == 0 and gap >= 0


def reducible_oracle(setup: ParabolicSetup, z1, z2) -> Verdict:
    """Verdict from the GK-dimension oracle alone."""
    gk = gk_dimension(setup, z1, z2)
    du = dim_nilradical(setup)
    return Verdict(gk=gk, dim_u=du, reducible=gk < du)


def criterion_a_diagonal(setup: ParabolicSetup, z) -> bool:
    """Type A closed form on the diagonal z1 = z2 = z."""
    if setup.lie.kind != "A":
        raise WrongLieType("diagonal type A criterion needs a type A setup")
    z = _coerce(z)
    gap, lo, hi = setup.middle, setup.outer_min, setup.outer_max
    if _is_int(z):
        if lo >= gap - 1:
            half_lo = (lo + 1) // 2 if gap % 2 == 0 else lo // 2
            first = -half_lo - (gap - 1) // 2
        elif lo > 0:
            first = -max((gap + lo + 1) // 2, hi) + 1 if hi < gap else -gap + 1
        else:
            first = -min(hi, gap) + 1
        return z.rational.numerator >= first
    # non-integral: reducible only for half-integers past the open boundary
    if lo < 1 or z.generic or z.rational.denominator != 2:
        return False
    return z.rational.numerator > -(gap + lo)


def criterion_a_offdiagonal(setup: ParabolicSetup, z1, z2) -> bool:
    """Type A closed form for z1 != z2 (consolidated coset form)."""
    if setup.lie.kind != "A":
        raise WrongLieType("off-diagonal type A criterion needs a type A setup")
    z1, z2 = _coerce(z1), _coerce(z2)
    if scalars_equal(z1, z2):
        raise EqualParameters("off-diagonal criterion needs z1 != z2")
    n, p = setup.n, setup.p
    gap, lo = setup.middle, setup.outer_min
    tail = n - setup.q
    if tail == 0:
        return _int_at_least(z1, 1 - min(p, gap))
    return (
        _int_at_least(z2, 1 - min(gap, tail))
        or _int_at_least(z1, 1 - min(p, gap))
        or sum_int_at_least(z1, z2, -gap - lo + 1)
    )


def criterion_d(setup: ParabolicSetup, z1, z2) -> bool:
    """Type D closed form, both removed-root patterns, both parities."""
    if setup.lie.kind != "D":
        raise WrongLieType("type D criterion needs a type D setup")
    z1, z2 = _coerce(z1), _coerce(z2)
    n = setup.n
    odd = n % 2 == 1
    if setup.p == 1:
        # q = n-1 or n
        if _int_at_least(z1, 0):
            return True
        z1_int = _is_int(z1)
        if (not z1_int and not _is_int(z2)) or (z1_int and z1.rational.numerator == -1):
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


def criterion(setup: ParabolicSetup, z1, z2) -> bool:
    """Dispatch to the matching closed form for the setup and parameters."""
    z1, z2 = _coerce(z1), _coerce(z2)
    if setup.lie.kind == "D":
        return criterion_d(setup, z1, z2)
    if scalars_equal(z1, z2):
        return criterion_a_diagonal(setup, z1)
    return criterion_a_offdiagonal(setup, z1, z2)


def evaluate(setup: ParabolicSetup, z1, z2) -> Verdict:
    """Oracle verdict plus criterion answer and agreement flag."""
    gk = gk_dimension(setup, z1, z2)
    du = dim_nilradical(setup)
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
    if not is_integral(entries, setup.lie):
        raise NonIntegralWeight("the three-column shape test needs an integral weight")
    columns = conjugate(rs_shape(entries))
    target = tuple(
        sorted((c for c in (setup.p, setup.middle, setup.n - setup.q) if c), reverse=True)
    )
    return columns == target
