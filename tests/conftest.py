from fractions import Fraction

from hypothesis import strategies as st

from gvmred import ExactScalar, symbol

TAU = symbol("tau")
SIGMA = symbol("sigma")


def sc(value) -> ExactScalar:
    """Shorthand: build a rational ExactScalar from int, Fraction or 'a/b'."""
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, str):
        return ExactScalar(Fraction(value))
    return ExactScalar(value)


def seq(*values) -> tuple[ExactScalar, ...]:
    return tuple(sc(v) for v in values)


# Random scalars for property tests: rational parts with denominators 1-6,
# symbol coefficients that include non-integers, and both symbols together.
rationals = st.one_of(
    st.integers(-12, 4).map(Fraction),
    st.builds(Fraction, st.integers(-30, 12), st.integers(1, 6)),
)
symbol_coefficients = st.sampled_from(
    tuple(map(Fraction, (0, 0, 0, 1, -1, 2)))
    + (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 3))
)
scalars = st.one_of(
    rationals.map(ExactScalar),
    st.builds(
        lambda r, t, s: ExactScalar(r, {"tau": t, "sigma": s}),
        rationals,
        symbol_coefficients,
        symbol_coefficients,
    ),
)
factors = st.sampled_from(tuple(map(Fraction, (2, -2, 3))) + (Fraction(1, 2), Fraction(-1, 3)))


@st.composite
def scalar_pairs(draw):
    """Independent pairs; pairs with a rational sum or difference; equal
    pairs; and pairs whose symbol parts are proportional."""
    z1 = draw(scalars)
    relation = draw(st.sampled_from(("free", "sum", "difference", "equal", "multiple")))
    if relation == "free":
        return z1, draw(scalars)
    if relation == "sum":
        return z1, draw(rationals) - z1
    if relation == "difference":
        return z1, z1 + draw(rationals)
    if relation == "multiple":
        return z1, z1 * draw(factors) + draw(rationals)
    return z1, ExactScalar(z1.rational, z1.generic)
