"""Exact scalar arithmetic over the rationals extended by two generic symbols.

A scalar is a rational number plus a Q-linear combination of the two
formal symbols ``tau`` and ``sigma`` (``SYMBOLS``; any other name is
refused with ``ValueError``).  The symbols stand for parameters carrying
no integrality relations: a scalar with a nonzero symbol part is never an
integer, never a half-integer, and never passes an ordering threshold
against a rational.  Scalars have no order; ``tableaux`` ranks a
sequence's rational parts and refuses mixed symbol parts with
``IncomparableScalars``.

Each scalar keeps its canonical form in four fields, set once when it is
built: ``num`` and ``den`` of the rational part as ints, and the
coefficients ``tau`` and ``sigma``, each the int 0 when zero (so testing
and comparing it costs no ``Fraction`` call) and a ``Fraction`` otherwise.
The tests below (``scalars_equal``, ``integer_difference``,
``integer_sum``, and the integrality decision, the form values, which the
oracle and the criterion share) read only these fields, so they build no
scalar.

The form values (x*z1 + y*z2)/2 come in two steps: ``decode_point``
reads a point's common denominator and symbol kernel once, and
``form_column`` tests one integer pair (x, y) against many decoded
points.  ``form_values(forms, z1, z2)`` runs both for one point and many
pairs and returns the exact values, taking each parameter through
``as_scalar``, the one coercion of an int or a ``Fraction``; ``saturate``
clamps a column to a window, which only a sweep's memo key needs
(``harness.decide_cells`` describes the sweep's stages).  A grid (``harness.ParameterGrid``)
decodes its points once and keeps one column per pair for every setup
swept over it.  z1, z2 and z1 + z2, which the criterion tests, are the
values of the pairs (2, 0), (0, 2) and (2, 2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence, Union

# The only symbol names, in grid order.
SYMBOLS = ("tau", "sigma")


class IncomparableScalars(ValueError):
    """A sequence to be ordered mixes different symbol parts."""


RationalLike = Union[int, Fraction]


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class ExactScalar:
    """Immutable rational plus ``tau`` and ``sigma`` coefficients, kept in
    canonical form: a reduced ``Fraction`` and two coefficients, each the
    int 0 or a nonzero ``Fraction``, so structural equality is semantic
    equality.  The constructor takes the symbol part as a mapping or as
    (name, coefficient) pairs, adding up the coefficients of one name."""

    __slots__ = ("rational", "num", "den", "tau", "sigma", "_hash")

    def __init__(self, rational: RationalLike = 0, generic=()):
        self.rational = r = _fraction(rational)
        self.num, self.den = r.numerator, r.denominator
        coeffs = {}
        if generic:
            for name, coeff in generic.items() if isinstance(generic, Mapping) else generic:
                if name not in SYMBOLS:
                    raise ValueError(
                        f"unknown symbol {name!r}: the symbols are {' and '.join(SYMBOLS)}"
                    )
                coeff = _fraction(coeff)
                coeffs[name] = coeffs[name] + coeff if name in coeffs else coeff
        self.tau = tau = coeffs.get("tau") or 0
        self.sigma = sigma = coeffs.get("sigma") or 0
        # a rational scalar equals its Fraction (and int), so hashes alike
        self._hash = hash((r, tau, sigma)) if tau or sigma else hash(r)

    @property
    def generic(self) -> tuple[tuple[str, Fraction], ...]:
        """The nonzero (name, coefficient) pairs, sigma first."""
        return tuple([(n, c) for n, c in (("sigma", self.sigma), ("tau", self.tau)) if c])

    @property
    def is_rational(self) -> bool:
        return not (self.tau or self.sigma)

    @property
    def is_integer(self) -> bool:
        return self.den == 1 and not (self.tau or self.sigma)

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactScalar(self.rational + other.rational, self.generic + other.generic)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactScalar(
            self.rational - other.rational,
            self.generic + tuple([(n, -c) for n, c in other.generic]),
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return ExactScalar(-self.rational, [(n, -c) for n, c in self.generic])

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        f = _fraction(other)
        return ExactScalar(self.rational * f, [(n, c * f) for n, c in self.generic])

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return scalars_equal(self, other)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # protocols 0 and 1 cannot copy __slots__; the constructor rebuilds every field
        return ExactScalar, (self.rational, self.generic)

    def __repr__(self):
        return f"ExactScalar({self!s})"

    def __str__(self):
        # a zero rational part is left out unless nothing else prints
        text = str(self.rational) if self.rational or self.is_rational else ""
        for name, coeff in self.generic:
            sign = "-" if coeff < 0 else "+" if text else ""
            text += sign + (name if abs(coeff) == 1 else f"{abs(coeff)}*{name}")
        return text


def as_scalar(z) -> ExactScalar:
    """``z`` as an ExactScalar: an ExactScalar as it is, an int or a
    ``Fraction`` as the rational scalar it equals; anything else, a float
    too, raises TypeError.  The one coercion of a one-point parameter."""
    return z if isinstance(z, ExactScalar) else ExactScalar(z)


def symbol(name: str, coeff: RationalLike = 1) -> ExactScalar:
    """A purely generic scalar ``coeff * name``."""
    return ExactScalar(0, [(name, coeff)])


# The tests below read the integer fields of canonical scalars (reduced
# fractions with positive denominators) and build no scalar, so they are
# cheap enough to run at every grid point.


def scalars_equal(a: ExactScalar, b: ExactScalar) -> bool:
    """a == b, compared on numerators and denominators."""
    return a.num == b.num and a.den == b.den and a.tau == b.tau and a.sigma == b.sigma


def integer_difference(a: ExactScalar, b: ExactScalar) -> int | None:
    """a - b as an int when it is an integer, else None; builds no
    difference.  The symbol parts must be equal."""
    if a.tau != b.tau or a.sigma != b.sigma:
        return None
    total, rest = divmod(a.num * b.den - b.num * a.den, a.den * b.den)
    return None if rest else total


def integer_sum(a: ExactScalar, b: ExactScalar) -> int | None:
    """a + b as an int when it is an integer, else None; builds no sum.
    The symbol parts must be exact negatives."""
    if a.tau != -b.tau or a.sigma != -b.sigma:
        return None
    total, rest = divmod(a.num * b.den + b.num * a.den, a.den * b.den)
    return None if rest else total


def sub_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """True when a - b is an integer (symbol parts must cancel exactly)."""
    return integer_difference(a, b) is not None


def sum_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """True when a + b is an integer (symbol parts must be negatives)."""
    return integer_sum(a, b) is not None


# A point decoded for ``form_column``: (n1, n2, scale, u, v), the rational
# parts of z1 and z2 being n1/d and n2/d over one denominator d = scale/2,
# and (u, v) the symbol kernel: x*z1 + y*z2 has no symbol part exactly
# when x*v == y*u ((0, 0) when both parameters are rational); None when no
# nonzero integer pair cancels the symbol parts.
DecodedPoint = Union[tuple[int, int, int, int, int], None]


def decode_point(z1: ExactScalar, z2: ExactScalar) -> DecodedPoint:
    """The common denominator and the symbol kernel of (z1, z2), read once
    per point for every form."""
    n1, d1, n2, d2 = z1.num, z1.den, z2.num, z2.den
    if d1 != d2:  # the rational parts over one denominator
        g = gcd(d1, d2)
        n1, n2, d1 = n1 * (d2 // g), n2 * (d1 // g), d1 // g * d2
    # (x, y) cancels the symbols when x*t1 + y*t2 == x*s1 + y*s2 == 0: the
    # multiples of (t2, -t1), or of (s2, -s1) when z1 and z2 have no tau;
    # when both symbols appear, only (0, 0) unless the 2x2 determinant
    # vanishes.  A coefficient is the int 0 or a Fraction, so the kernel is
    # read off their numerators and denominators.
    t1, s1, t2, s2 = z1.tau, z1.sigma, z2.tau, z2.sigma
    if not (t1 or t2):
        t1, t2 = s1, s2
    elif (s1 or s2) and t1 * s2 != t2 * s1:
        return None
    return n1, n2, 2 * d1, t2.numerator * t1.denominator, -t1.numerator * t2.denominator


def form_column(points: Sequence[DecodedPoint], form: tuple[int, int]) -> tuple[int | None, ...]:
    """Per decoded point: (x*z1 + y*z2)/2 for the integer pair ``form`` =
    (x, y), as an int when it is an integer, else None.

    The symbol parts of x*z1 + y*z2 cancel exactly when x*v == y*u; then
    the value is an integer when the rational parts, over their common
    denominator, divide.
    """
    x, y = form
    column = []
    for point in points:
        if point is None:
            column.append(None)
            continue
        n1, n2, scale, u, v = point
        t = x * n1 + y * n2
        column.append(None if x * v != y * u or t % scale else t // scale)
    return tuple(column)


def saturate(column: Sequence[int | None], window: tuple[int, int]) -> tuple[int | None, ...]:
    """``column`` with each int clamped to ``window`` = (lo, hi); None stays
    None.  A grid's cell table clamps each form's distinct exact ints with
    it at the setup's windows, once per form set and windows, and the
    distinct clamped tuples are the sweep's memo keys."""
    lo, hi = window
    return tuple([v if v is None or lo <= v <= hi else lo if v < lo else hi for v in column])


def form_values(forms: Sequence[tuple[int, int]], z1, z2) -> tuple[int | None, ...]:
    """Per integer pair (x, y): (x*z1 + y*z2)/2 as an int when it is an
    integer, else None; builds no scalar beyond ``as_scalar`` of an int or
    ``Fraction`` parameter.  The one-point form of ``form_column``, behind
    both ``gk.gk_dimension`` and ``verdict.criterion``: the point is
    decoded once for all pairs.  ``forms`` holds no (0, 0) pair."""
    point = (decode_point(as_scalar(z1), as_scalar(z2)),)
    return tuple([form_column(point, form)[0] for form in forms])
