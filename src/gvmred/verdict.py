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

from .exact import ExactScalar, sum_int_at_least
from .gk import gk_dimension
from .rootdata import ParabolicSetup


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


def evaluate(
    setup: ParabolicSetup, z1, z2, memo: dict | None = None, values: tuple | None = None
) -> Verdict:
    """Oracle verdict plus criterion answer and agreement flag.

    ``memo`` and ``values`` (the point's saturated and exact form values,
    read off a grid's columns) are handed to ``gk_dimension``; the
    criterion runs at every point, on the parameters themselves.
    """
    gk = gk_dimension(setup, z1, z2, memo, values)
    du = setup.dim_u
    reducible = gk < du
    crit = criterion(setup, z1, z2)
    return Verdict(gk, du, reducible, crit, reducible == crit)
