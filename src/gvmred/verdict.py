"""Reducibility verdicts: GK-dimension oracle and closed-form criteria.

The oracle declares the scalar generalized Verma module reducible exactly
when the GK dimension of its simple quotient drops below the nilradical
dimension.  The closed-form criterion is one formula for every setup:
the module is reducible exactly when z1, z2 or z1 + z2 is an integer on
its half-line Z>=b1, Z>=b2 or Z>=b12, three bounds fixed by the setup
(``ParabolicSetup.half_lines``).  In the (z1, z2) plane the reducible set
is these three families of lines; the diagonal z1 = z2 needs no case of
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
from .rootdata import ParabolicSetup
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


def _int_at_least(z: ExactScalar, bound: int) -> bool:
    """z is a plain integer >= bound."""
    return z.den == 1 and not z.terms and z.num >= bound


def criterion(setup: ParabolicSetup, z1, z2) -> bool:
    """The closed form at (z1, z2): z1, z2 or z1 + z2 is an integer on its
    half-line of ``setup.half_lines``.

    The same three tests decide the diagonal z1 = z2, so nothing compares
    the two parameters.
    """
    z1, z2 = _coerce(z1), _coerce(z2)
    b1, b2, b12 = setup.half_lines
    return _int_at_least(z1, b1) or _int_at_least(z2, b2) or sum_int_at_least(z1, z2, b12)


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


def has_maximal_shape(setup: ParabolicSetup, entries: tuple[ExactScalar, ...]) -> bool:
    """Whether the insertion tableau of an integral type A weight, given by
    its entries, has the three-column shape with column lengths
    {p, q-p, n-q} (zeros dropped).

    For integral weights this holds exactly when the GK dimension attains
    the nilradical dimension.
    """
    if setup.lie.kind != "A":
        raise WrongLieType("the three-column shape test is for type A")
    if any(integer_difference(e, entries[0]) is None for e in entries[1:]):
        raise NonIntegralWeight("the three-column shape test needs an integral weight")
    columns = conjugate(rs_shape(entries))
    target = tuple(
        sorted((c for c in (setup.p, setup.q - setup.p, setup.n - setup.q) if c), reverse=True)
    )
    return columns == target
