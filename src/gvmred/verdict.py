"""Reducibility verdicts: GK-dimension oracle and closed-form criteria.

The oracle declares the scalar generalized Verma module reducible exactly
when the GK dimension of its simple quotient drops below the nilradical
dimension.  The closed-form criterion is one formula for every setup:
the module is reducible exactly when z1, z2 or z1 + z2 is an integer on
its half-line Z>=b1, Z>=b2 or Z>=b12, three bounds fixed by the setup
(``ParabolicSetup.half_lines``).  In the (z1, z2) plane the reducible set
is these three families of lines; the diagonal z1 = z2 needs no case of
its own.  Sweeps cross-check the two answers at every grid point.

The criterion reads the oracle's integrality decision: z1, z2 and
z1 + z2 are the values of the forms (2, 0), (0, 2) and (2, 2), which
every setup's ``ParabolicSetup.gk_key`` holds, together with each
half-line's form index and bound (``GKKey.half_lines``).  So
``on_half_line`` tests a point's form values, exact or clamped at the
key's windows, which are wide enough for its bounds; a sweep
(``harness.sweep``) runs it once per memo key, on the exact values of
the key's first cell, next to the GK dimension, and ``criterion`` runs
it on one point's ``exact.form_values``.  No
scalar is built: a scalar with a nonzero symbol part is never an integer,
and the form values are read off the scalars' fields.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import ExactScalar, form_values
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


def on_half_line(setup: ParabolicSetup, values: tuple) -> bool:
    """z1, z2 or z1 + z2 is an integer on its half-line, read off the form
    values ``values`` over ``setup.gk_key.forms``, exact or clamped at its
    windows.  The same three tests decide the diagonal z1 = z2, so nothing
    compares the two parameters."""
    (i, b1), (j, b2), (k, b12) = setup.gk_key.half_lines
    a, b, s = values[i], values[j], values[k]
    return (
        (a is not None and a >= b1) or (b is not None and b >= b2) or (s is not None and s >= b12)
    )


def criterion(setup: ParabolicSetup, z1, z2) -> bool:
    """The closed form at one point (z1, z2): ``on_half_line`` of its exact
    form values."""
    return on_half_line(setup, form_values(setup.gk_key.forms, _coerce(z1), _coerce(z2)))


def evaluate(setup: ParabolicSetup, z1, z2) -> Verdict:
    """Oracle verdict plus criterion answer and agreement flag at one
    point; ``harness.sweep`` decides a whole grid by cells."""
    gk = gk_dimension(setup, z1, z2)
    du = setup.dim_u
    reducible = gk < du
    crit = criterion(setup, z1, z2)
    return Verdict(gk, du, reducible, crit, reducible == crit)
