"""Reducibility verdicts: GK-dimension oracle and closed-form criteria.

The oracle declares the scalar generalized Verma module reducible exactly
when the GK dimension of its simple quotient drops below the nilradical
dimension.  The closed-form criterion is one formula for every setup:
the module is reducible exactly when z1, z2 or z1 + z2 is an integer on
its half-line Z>=b1, Z>=b2 or Z>=b12, three bounds fixed by the setup
(``ParabolicSetup.half_lines``).  In the (z1, z2) plane the reducible set
is these three families of lines; the diagonal z1 = z2 needs no case of
its own.  Sweeps cross-check the two answers at every grid point.

The criterion comes in two steps, like the form values of ``exact``:
``criterion_values`` reads z1, z2 and z1 + z2 of each point as an int
when it is an integer, else None, and ``criterion_column`` tests those
triples against one setup's half-lines.  A grid
(``harness.ParameterGrid``) keeps the values of its points for every
setup swept over it, and numbers its cells by them jointly with the
oracle's form values; a sweep runs ``criterion_column`` once, over the
cells' triples, so once per cell, not per point.  ``criterion`` runs
both steps for one point.

Coset membership such as "z in c + Z>=0" is decided exactly: a scalar with
a nonzero symbol part is never an integer.  The values are read off each
parameter's fields (``num`` and ``den`` of its rational part and its
``tau`` and ``sigma`` coefficients, stored when the scalar is built) and
``exact.integer_sum``, so the criterion builds no scalar.  This is an
integrality decision of its own: it shares only the cell numbering with
the oracle's form values (``exact.form_column``).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .exact import ExactScalar, integer_sum
from .gk import gk_dimension
from .rootdata import ParabolicSetup

# (z1, z2, z1 + z2) at one point, each an int when it is an integer, else None
CriterionValues = tuple["int | None", "int | None", "int | None"]


class Verdict(NamedTuple):
    gk: int
    dim_u: int
    reducible: bool
    criterion: bool
    agree: bool


def _coerce(z) -> ExactScalar:
    return z if isinstance(z, ExactScalar) else ExactScalar(z)


def criterion_values(points: Iterable[tuple[ExactScalar, ExactScalar]]) -> list[CriterionValues]:
    """Per point (z1, z2): z1, z2 and z1 + z2, each as an int when it is
    an integer, else None; builds no scalar."""
    return [
        (
            z1.num if z1.is_integer else None,
            z2.num if z2.is_integer else None,
            integer_sum(z1, z2),
        )
        for z1, z2 in points
    ]


def criterion_column(setup: ParabolicSetup, values: Iterable[CriterionValues]) -> list[bool]:
    """Per triple of ``criterion_values``: z1, z2 or z1 + z2 is an integer
    on its half-line of ``setup.half_lines``.

    The same three tests decide the diagonal z1 = z2, so nothing compares
    the two parameters.
    """
    b1, b2, b12 = setup.half_lines
    return [
        (a is not None and a >= b1) or (b is not None and b >= b2) or (s is not None and s >= b12)
        for a, b, s in values
    ]


def criterion(setup: ParabolicSetup, z1, z2) -> bool:
    """The closed form at one point (z1, z2): ``criterion_column`` of its
    ``criterion_values``."""
    return criterion_column(setup, criterion_values(((_coerce(z1), _coerce(z2)),)))[0]


def evaluate(setup: ParabolicSetup, z1, z2) -> Verdict:
    """Oracle verdict plus criterion answer and agreement flag at one
    point; ``harness.sweep`` decides a whole grid by cells."""
    gk = gk_dimension(setup, z1, z2)
    du = setup.dim_u
    reducible = gk < du
    crit = criterion(setup, z1, z2)
    return Verdict(gk, du, reducible, crit, reducible == crit)
