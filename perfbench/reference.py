"""Independent reference for the benchmark's correctness checks.

Written on plain ``Fraction``s and sharing no code with ``gvmred``.  A
scalar is a triple ``(rational, tau, sigma)``: a rational number plus
coefficients of the two generic symbols.  The reference has its own
integrality-class split, its own Robinson-Schensted row insertion, the
GK-dimension formula, ``dim u`` counted from positive roots, and the
standard parameter grid with its closed-form size.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def scalar(rational=0, tau=0, sigma=0) -> tuple:
    return (Fraction(rational), Fraction(tau), Fraction(sigma))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _scale(a, k):
    return (a[0] * k, a[1] * k, a[2] * k)


def _neg(a):
    return (-a[0], -a[1], -a[2])


def format_scalar(a) -> str:
    """CLI syntax for a scalar, e.g. ``-5/2+tau`` or ``1/3-2*sigma``."""
    text = str(a[0]) if a[0] or not (a[1] or a[2]) else ""
    for name, coeff in (("tau", a[1]), ("sigma", a[2])):
        if coeff:
            mag = abs(coeff)
            term = name if mag == 1 else f"{mag}*{name}"
            text += ("-" if coeff < 0 else ("+" if text else "")) + term
    return text


# ---------------------------------------------------------------------------
# weights


def _xi(kind: str, n: int, k: int) -> list[Fraction]:
    """Fundamental weight k.  Type A uses the gl(n) representative
    (1^k, 0^(n-k)): it differs from the sl(n) weight by a common shift,
    which changes neither integrality classes nor insertion shapes."""
    if kind == "A" or k <= n - 2:
        return [Fraction(int(i < k)) for i in range(n)]
    last = -HALF if k == n - 1 else HALF
    return [HALF] * (n - 1) + [last]


def shifted_weight(kind: str, n: int, p: int, q: int, z1, z2) -> list[tuple]:
    """z1*xi_p + z2*xi_q + rho, with rho = (n-1, ..., 0) in type A (again up
    to a common shift) and (n-1, ..., 0) in type D."""
    a, b = _xi(kind, n, p), _xi(kind, n, q)
    return [
        _add(_add(_scale(z1, a[i]), _scale(z2, b[i])), scalar(n - 1 - i))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# integrality classes


def _coset(a) -> tuple:
    """The class of ``a`` modulo integers: symbol part and fractional part."""
    return (a[1], a[2], a[0] - (a[0].numerator // a[0].denominator))


def split_classes(kind: str, weight) -> list[tuple[str, list[tuple]]]:
    """Maximal classes in order of first occurrence, each labeled
    ``integer``, ``half`` or ``other``.  Type A relates entries whose
    difference is an integer; type D also those whose sum is."""
    groups: dict[tuple, list[tuple]] = {}
    for entry in weight:
        key = _coset(entry)
        if kind == "D":
            key = min(key, _coset(_neg(entry)))
        groups.setdefault(key, []).append(entry)
    labeled = []
    for (tau, sigma, frac), members in groups.items():
        label = "other"
        if kind == "D" and not tau and not sigma and frac in (ZERO, HALF):
            label = "integer" if frac == ZERO else "half"
        labeled.append((label, members))
    return labeled


# ---------------------------------------------------------------------------
# Robinson-Schensted


def insertion_shape(values) -> list[int]:
    """Row lengths of the insertion tableau; an inserted value bumps the
    leftmost entry strictly greater than it."""
    rows: list[list[Fraction]] = []
    for v in values:
        placed = False
        for row in rows:
            for j, w in enumerate(row):
                if w > v:
                    row[j], v = v, w
                    break
            else:
                row.append(v)
                placed = True
                break
        if not placed:
            rows.append([v])
    return [len(r) for r in rows]


def _depth(shape) -> int:
    return sum(i * length for i, length in enumerate(shape))


def _even_depth(shape) -> int:
    """Depth sum over the boxes (i, j) with i + j even, 1-indexed."""
    total = 0
    for i, length in enumerate(shape, start=1):
        for j in range(1, length + 1):
            if (i + j) % 2 == 0:
                total += i - 1
    return total


def _folded(members) -> list[Fraction]:
    """Rational keys of a mixed class: entries congruent to the first one
    keep their order; the rest are negated and appended in reverse."""
    anchor = _coset(members[0])
    kept = [m[0] for m in members if _coset(m) == anchor]
    flipped = [-m[0] for m in members if _coset(m) != anchor]
    return kept + flipped[::-1]


def gk_of_weight(kind: str, weight) -> int:
    n = len(weight)
    if kind == "A":
        return n * (n - 1) // 2 - sum(
            _depth(insertion_shape([m[0] for m in members]))
            for _, members in split_classes(kind, weight)
        )
    total = n * n - n
    for label, members in split_classes(kind, weight):
        if label == "other":
            total -= _depth(insertion_shape(_folded(members)))
        else:
            keys = [m[0] for m in members]
            total -= _even_depth(insertion_shape(keys + [-k for k in reversed(keys)]))
    return total


def gk_dimension(kind: str, n: int, p: int, q: int, z1, z2) -> int:
    return gk_of_weight(kind, shifted_weight(kind, n, p, q, z1, z2))


# ---------------------------------------------------------------------------
# nilradical


def _positive_roots(kind: str, n: int) -> list[list[int]]:
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            roots.append(minus)
            if kind == "D":
                plus = [0] * n
                plus[i] = plus[j] = 1
                roots.append(plus)
    return roots


def dim_u(kind: str, n: int, p: int, q: int) -> int:
    """Positive roots whose expansion uses simple root p or q.

    Pairing a root with the fundamental weight xi_k reads off its k-th
    simple-root coefficient (both types are simply laced); the common
    shift of the gl(n) representative pairs to 0 with every type A root.
    """
    wp, wq = _xi(kind, n, p), _xi(kind, n, q)
    return sum(
        1
        for root in _positive_roots(kind, n)
        if sum(r * w for r, w in zip(root, wp)) or sum(r * w for r, w in zip(root, wq))
    )


# ---------------------------------------------------------------------------
# standard grid


def grid_size(n: int) -> int:
    """(R+3)^2 + R^2 + R - 1 points, R = 2n + 11 half-steps in [-(n+2), 3]."""
    r = 2 * n + 11
    return (r + 3) ** 2 + r * r + r - 1


def standard_grid(n: int) -> list[tuple]:
    """The points of the standard grid: the cartesian square of the
    half-step range plus 1/3, tau and sigma; every coupled pair
    (a+tau, b-tau); and the diagonal (a+tau, a+tau)."""
    steps = [Fraction(k, 2) for k in range(-2 * (n + 2), 7)]
    axis = [scalar(v) for v in steps] + [scalar(Fraction(1, 3)), scalar(0, 1), scalar(0, 0, 1)]
    points = {(a, b): None for a in axis for b in axis}
    for a in steps:
        for b in steps:
            points.setdefault((scalar(a, 1), scalar(b, -1)))
    for a in steps:
        points.setdefault((scalar(a, 1), scalar(a, 1)))
    return list(points)


_CALIBRATION_POINTS: list = []


def calibration_work() -> int:
    """A fixed amount of Fraction-heavy work: the A6(2,4) GK dimension at
    every eighth point of its standard grid.  Timing it measures how fast
    the machine runs this kind of code at the moment."""
    if not _CALIBRATION_POINTS:
        _CALIBRATION_POINTS.extend(standard_grid(6)[::8])
    return sum(gk_dimension("A", 6, 2, 4, z1, z2) for z1, z2 in _CALIBRATION_POINTS)


def self_check() -> None:
    """Known values; raises AssertionError when the reference is wrong."""
    assert grid_size(9) == 1893 and grid_size(8) == 1655
    assert len(standard_grid(9)) == 1893 and len(standard_grid(8)) == 1655
    assert insertion_shape([Fraction(v) for v in (5, 3, 3, 1)]) == [2, 1, 1]
    assert insertion_shape([Fraction(v) for v in (1, 2, 2, 3)]) == [4]
    # dim u: q(n-q) + p(q-p) in type A, (n^2 + n - 2)/2 in type D
    assert dim_u("A", 10, 3, 6) == 6 * 4 + 3 * 3
    assert dim_u("D", 7, 6, 7) == dim_u("D", 7, 1, 6) == (49 + 7 - 2) // 2
    # a generic point is irreducible: GK attains dim u
    generic = scalar(0, 1)
    for kind, n, p, q in (("A", 10, 3, 6), ("D", 6, 1, 5), ("D", 7, 6, 7)):
        assert gk_dimension(kind, n, p, q, generic, scalar(0, 0, 1)) == dim_u(kind, n, p, q)
    # z1 = z2 = 0 is the trivial highest weight: finite-dimensional quotient
    assert gk_dimension("A", 8, 2, 5, scalar(0), scalar(0)) == 0
    assert gk_dimension("D", 6, 1, 5, scalar(0), scalar(0)) == 0
