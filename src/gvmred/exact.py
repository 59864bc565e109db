"""Exact scalar arithmetic over the rationals extended by generic symbols.

A scalar is a rational number plus a Q-linear combination of named formal
symbols.  The symbols stand for parameters carrying no integrality
relations: a scalar with a nonzero symbol part is never an integer, never
a half-integer, and never passes an ordering threshold against a rational.
Two symbol names (``tau``, ``sigma``) are enough for every criterion in
this package, but the type accepts any names.  Scalars have no order;
``tableaux`` ranks a sequence's rational parts and refuses mixed symbol
parts with ``IncomparableScalars``.

Each scalar decodes its canonical form into plain integers once, when it
is built: ``num`` and ``den`` of the rational part and ``terms``, the
symbol part as ``(name, numerator, denominator)`` triples, with
``neg_terms`` its negation.  The tests below (``scalars_equal``,
``integer_difference``, ``integer_sum``, and the oracle's integrality
decision, the form values) and the criterion's values
(``verdict.criterion_values``) read only these fields, so they build no
scalar and do no ``Fraction`` arithmetic.

The form values (x*z1 + y*z2)/2 come in two steps: ``decode_point``
reads a point's common denominator and symbol kernel once, and
``form_column`` tests one integer pair (x, y) against many decoded
points.  ``form_values`` runs both for one point and many pairs; a grid
(``harness.ParameterGrid``) decodes its points once and keeps one column
per pair for every setup swept over it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence, Union


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
    """Immutable rational plus symbol terms, kept in canonical form.

    Canonical form: the rational part is a reduced ``Fraction`` and the
    symbol part holds no zero coefficients, so structural equality is
    semantic equality.  ``num``/``den`` and ``terms``/``neg_terms`` hold
    the same canonical form as integers (see the module docstring).
    """

    __slots__ = ("rational", "generic", "num", "den", "terms", "neg_terms", "_hash")

    def __init__(self, rational: RationalLike = 0, generic=None):
        self.rational = r = _fraction(rational)
        self.num, self.den = r.numerator, r.denominator
        if not generic:
            self.generic = self.terms = self.neg_terms = ()
        else:
            items = generic.items() if isinstance(generic, Mapping) else generic
            merged: dict[str, Fraction] = {}
            for name, coeff in items:
                coeff = _fraction(coeff)
                merged[name] = merged[name] + coeff if name in merged else coeff
            generic, terms, neg_terms = [], [], []
            for name in sorted(merged):
                coeff = merged[name]
                if coeff:
                    num, den = coeff.numerator, coeff.denominator
                    generic.append((name, coeff))
                    terms.append((name, num, den))
                    neg_terms.append((name, -num, den))
            self.generic, self.terms, self.neg_terms = (
                tuple(generic), tuple(terms), tuple(neg_terms)
            )
        # a rational scalar equals its Fraction (and int), so hashes alike
        self._hash = (
            hash((self.rational, self.generic)) if self.generic else hash(self.rational)
        )

    @property
    def is_rational(self) -> bool:
        return not self.generic

    @property
    def is_integer(self) -> bool:
        return not self.terms and self.den == 1

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
        return ExactScalar(
            self.rational + other.rational, tuple(self.generic) + tuple(other.generic)
        )

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

    def __repr__(self):
        return f"ExactScalar({self!s})"

    def __str__(self):
        parts: list[str] = []
        if self.rational or not self.generic:
            parts.append(str(self.rational))
        for name, coeff in self.generic:
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            term = name if mag == 1 else f"{mag}*{name}"
            if not parts and sign == "+":
                parts.append(term)
            else:
                parts.append(sign + term)
        return "".join(parts)


def symbol(name: str, coeff: RationalLike = 1) -> ExactScalar:
    """A purely generic scalar ``coeff * name``."""
    return ExactScalar(0, [(name, coeff)])


# The tests below read the integer fields of canonical scalars (reduced
# fractions with positive denominators) and build no scalar, so they are
# cheap enough to run at every grid point.


def scalars_equal(a: ExactScalar, b: ExactScalar) -> bool:
    """a == b, compared on numerators and denominators."""
    return a.num == b.num and a.den == b.den and a.terms == b.terms


def integer_difference(a: ExactScalar, b: ExactScalar) -> int | None:
    """a - b as an int when it is an integer, else None; builds no
    difference.  The symbol parts must be equal."""
    if a.terms != b.terms:
        return None
    total, rest = divmod(a.num * b.den - b.num * a.den, a.den * b.den)
    return None if rest else total


def integer_sum(a: ExactScalar, b: ExactScalar) -> int | None:
    """a + b as an int when it is an integer, else None; builds no sum.
    The symbol parts must be exact negatives."""
    if a.terms != b.neg_terms:
        return None
    total, rest = divmod(a.num * b.den + b.num * a.den, a.den * b.den)
    return None if rest else total


def sub_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """True when a - b is an integer (symbol parts must cancel exactly)."""
    return integer_difference(a, b) is not None


def sum_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """True when a + b is an integer (symbol parts must be negatives)."""
    return integer_sum(a, b) is not None


def _symbol_kernel(g1, g2) -> tuple[int, int] | None:
    """A direction (u, v) such that x*g1 + y*g2 vanishes for an integer
    pair (x, y) != (0, 0) exactly when x*v == y*u; None when it vanishes
    for none (the symbol parts are not proportional).  Both parts nonempty.
    """
    if len(g1) != len(g2):
        return None
    (_, n1, d1), (_, n2, d2) = g1[0], g2[0]
    a, b = n1 * d2, d1 * n2  # g1 = (a/b) * g2 on the first name
    for (name, n1, d1), (other, n2, d2) in zip(g1, g2):
        if name != other or n1 * d2 * b != d1 * n2 * a:
            return None
    return b, -a


# A point decoded for ``form_column``: (n1, n2, scale, u, v), the rational
# parts of z1 and z2 being n1/d and n2/d over one denominator d = scale/2,
# and (u, v) the symbol kernel ((0, 0) when both parameters are rational);
# None when no nonzero integer pair cancels the symbol parts.
DecodedPoint = Union[tuple[int, int, int, int, int], None]


def decode_point(z1: ExactScalar, z2: ExactScalar) -> DecodedPoint:
    """The common denominator and the symbol kernel of (z1, z2), read once
    per point for every form."""
    n1, d1, n2, d2 = z1.num, z1.den, z2.num, z2.den
    if d1 != d2:  # the rational parts over one denominator
        g = gcd(d1, d2)
        n1, n2, d1 = n1 * (d2 // g), n2 * (d1 // g), d1 // g * d2
    g1, g2 = z1.terms, z2.terms
    if not g1:
        u, v = (1, 0) if g2 else (0, 0)  # with a symbolic z2, y must be 0
    elif not g2:
        u, v = 0, 1
    else:
        kernel = _symbol_kernel(g1, g2)
        if kernel is None:
            return None
        u, v = kernel
    return n1, n2, 2 * d1, u, v


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
    None."""
    lo, hi = window
    return tuple([v if v is None or lo <= v <= hi else lo if v < lo else hi for v in column])


def form_values(
    forms: Sequence[tuple[int, int]],
    z1: ExactScalar,
    z2: ExactScalar,
    windows: Sequence[tuple[int, int]] | None = None,
) -> tuple[int | None, ...]:
    """Per integer pair (x, y): (x*z1 + y*z2)/2 as an int when it is an
    integer, else None; builds no scalar.

    The one-point form of ``form_column``: the point is decoded once for
    all pairs.  ``forms`` holds no (0, 0) pair.  With ``windows``, one
    (lo, hi) per pair, each int value is clamped to its window
    (saturated); None stays None.
    """
    point = (decode_point(z1, z2),)
    columns = [form_column(point, form) for form in forms]
    if windows is not None:
        columns = map(saturate, columns, windows)
    return tuple(column[0] for column in columns)
