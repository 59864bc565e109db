"""Exact scalar arithmetic over the rationals extended by generic symbols.

A scalar is a rational number plus a Q-linear combination of named formal
symbols.  The symbols stand for parameters carrying no integrality
relations: a scalar with a nonzero symbol part is never an integer, never
a half-integer, and never passes an ordering threshold against a rational.
Two symbol names (``tau``, ``sigma``) are enough for every criterion in
this package, but the type accepts any names.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Mapping, Union


class IncomparableScalars(ValueError):
    """Order comparison between scalars with different symbol parts."""


class CosetClass(Enum):
    INTEGER = "integer"
    HALF_INTEGER = "half-integer"
    OTHER = "other"


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
    semantic equality.
    """

    __slots__ = ("rational", "generic", "_hash")

    def __init__(self, rational: RationalLike = 0, generic=None):
        self.rational = _fraction(rational)
        if not generic:
            self.generic = ()
        else:
            items = generic.items() if isinstance(generic, Mapping) else generic
            merged: dict[str, Fraction] = {}
            for name, coeff in items:
                coeff = _fraction(coeff)
                merged[name] = merged.get(name, Fraction(0)) + coeff
            self.generic = tuple(
                (name, coeff) for name, coeff in sorted(merged.items()) if coeff
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
        return not self.generic and self.rational.denominator == 1

    @property
    def is_half_integer(self) -> bool:
        return not self.generic and self.rational.denominator == 2

    def coset_class(self) -> CosetClass:
        if self.is_integer:
            return CosetClass.INTEGER
        if self.is_half_integer:
            return CosetClass.HALF_INTEGER
        return CosetClass.OTHER

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
        return self + (-other)

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

    def _require_comparable(self, other) -> "ExactScalar":
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"cannot compare ExactScalar with {type(other).__name__}")
        if self.generic != coerced.generic:
            raise IncomparableScalars(
                f"cannot order {self} against {coerced}: symbol parts differ"
            )
        return coerced

    def __lt__(self, other):
        return self.rational < self._require_comparable(other).rational

    def __le__(self, other):
        return self.rational <= self._require_comparable(other).rational

    def __gt__(self, other):
        return self.rational > self._require_comparable(other).rational

    def __ge__(self, other):
        return self.rational >= self._require_comparable(other).rational

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


# The tests below read the integers inside canonical scalars (reduced
# fractions with positive denominators) and build no scalar, so they are
# cheap enough for the per-point criteria.


def _terms_match(g, h, sign: int) -> bool:
    """Canonical symbol parts with g = sign * h."""
    if len(g) != len(h):
        return False
    for (name, c), (other, d) in zip(g, h):
        if (
            name != other
            or c.denominator != d.denominator
            or c.numerator != sign * d.numerator
        ):
            return False
    return True


def scalars_equal(a: ExactScalar, b: ExactScalar) -> bool:
    """a == b, compared on numerators and denominators."""
    ra, rb = a.rational, b.rational
    return (
        ra.numerator == rb.numerator
        and ra.denominator == rb.denominator
        and _terms_match(a.generic, b.generic, 1)
    )


def sub_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """True when a - b is an integer (symbol parts must cancel exactly)."""
    if not _terms_match(a.generic, b.generic, 1):
        return False
    ra, rb = a.rational, b.rational
    da, db = ra.denominator, rb.denominator
    return (ra.numerator * db - rb.numerator * da) % (da * db) == 0


def _integer_sum(a: ExactScalar, b: ExactScalar) -> int | None:
    """a + b as an int when it is an integer, else None; builds no sum.

    The symbol parts must be exact negatives and the rational parts
    n1/d1 + n2/d2 must satisfy (n1*d2 + n2*d1) % (d1*d2) == 0.
    """
    if not _terms_match(a.generic, b.generic, -1):
        return None
    ra, rb = a.rational, b.rational
    da, db = ra.denominator, rb.denominator
    total, rest = divmod(ra.numerator * db + rb.numerator * da, da * db)
    return None if rest else total


def sum_is_integer(a: ExactScalar, b: ExactScalar) -> bool:
    """True when a + b is an integer (symbol parts must be negatives)."""
    return _integer_sum(a, b) is not None


def sum_int_at_least(a: ExactScalar, b: ExactScalar, bound: int) -> bool:
    """True when a + b is an integer >= bound."""
    total = _integer_sum(a, b)
    return total is not None and total >= bound


def coset_class(a: ExactScalar) -> CosetClass:
    return a.coset_class()


def compare(a: ExactScalar, b: ExactScalar) -> int:
    """-1, 0 or 1 ordering the rational parts.

    Only scalars with identical symbol parts are ordered; anything else
    raises IncomparableScalars (the algorithms here only ever compare
    within one integrality class, where symbol parts coincide).
    """
    br = a._require_comparable(b).rational
    if a.rational < br:
        return -1
    if a.rational > br:
        return 1
    return 0
