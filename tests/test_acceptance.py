"""End-to-end acceptance checks.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so a red test always has a red line.
"""

import itertools
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from gvmred import (
    ExactScalar,
    LieType,
    ParabolicSetup,
    ParameterGrid,
    evaluate,
    family_setups,
    gk_dimension,
    render_diagram,
    report_to_csv,
    report_to_json,
    rs_shape,
    shifted_weight,
    standard_grid,
    sweep,
    verify_family,
)

import dense_gk
from conftest import SIGMA, TAU, sc
from dense_gk import gk_dimension_integral
from references import even_odd_counts, has_maximal_shape, single_weight_reducible

A = lambda n: LieType("A", n)
D = lambda n: LieType("D", n)


def _report(num: int, ok: bool, detail: str = ""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def _int_at_least(z: ExactScalar, bound) -> bool:
    return z.is_integer and z.rational >= bound


def test_criterion_1_sl8_diagonal_boundary():
    start = time.perf_counter()
    setup = ParabolicSetup(A(8), 2, 5)
    values = tuple(sc(Fraction(k, 2)) for k in range(-8, 7))  # -4, -7/2, ..., 3
    grid = ParameterGrid(z1_values=(), z2_values=(), extra_points=tuple(zip(values, values)))
    got = {
        (row.z1.rational): row.verdict.reducible for row in sweep(setup, grid).rows
    }
    expected = {
        z: (z >= -2 and (z + 2).denominator in (1, 2)) for z in got
    }
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1.0
    _report(1, ok, f"{len(values)} diagonal points in {elapsed:.3f}s")


def _branch_check(setup, z1_base, z2_base, sum_base, diag_half_base):
    """Oracle vs the example's four branch families over the standard grid."""
    grid = standard_grid(setup)
    rows = sweep(setup, grid).rows
    verdicts = {(r.z1, r.z2): r.verdict for r in rows}
    problems = []
    rational_axis = sorted(
        {v.rational for v in grid.z1_values if v.is_rational}
    )
    axis = list(grid.z1_values)
    # full column reducible over every sampled z2 (generic included) iff the
    # z1 coset line passes through it; same for rows
    for a in rational_axis:
        col = all(verdicts[(sc(a), b)].reducible for b in axis)
        if col != (ExactScalar(a).is_integer and a >= z1_base):
            problems.append(("column", a, col))
        row = all(verdicts[(b, sc(a))].reducible for b in axis)
        if row != (ExactScalar(a).is_integer and a >= z2_base):
            problems.append(("row", a, row))
    # coupled generic pairs isolate the anti-diagonal sum branch
    for (u, v), verdict in verdicts.items():
        if not u.is_rational and not v.is_rational and (u + v).is_rational:
            expect = (u + v).is_integer and (u + v).rational >= sum_base
            if verdict.reducible != expect:
                problems.append(("sum", str(u), str(v), verdict.reducible))
    # half-integer diagonal
    for a in rational_axis:
        if Fraction(a).denominator != 2:
            continue
        got = verdicts[(sc(a), sc(a))].reducible
        if got != (a >= diag_half_base):
            problems.append(("diag", a, got))
    mismatches = sum(1 for r in rows if r.verdict.agree is False)
    if mismatches:
        problems.append(("criterion-mismatches", mismatches))
    return len(rows), problems


def test_criterion_2_sl10_sl11_examples():
    start = time.perf_counter()
    n10, p10 = _branch_check(
        ParabolicSetup(A(10), 3, 6),
        z1_base=-2, z2_base=-2, sum_base=-5, diag_half_base=Fraction(-5, 2),
    )
    t10 = time.perf_counter() - start
    start = time.perf_counter()
    n11, p11 = _branch_check(
        ParabolicSetup(A(11), 3, 9),
        z1_base=-2, z2_base=-1, sum_base=-7, diag_half_base=Fraction(-7, 2),
    )
    t11 = time.perf_counter() - start
    ok = not p10 and not p11 and t10 < 10 and t11 < 10
    _report(
        2,
        ok,
        f"sl(10): {n10} pts in {t10:.1f}s; sl(11): {n11} pts in {t11:.1f}s"
        + (f"; problems: {(p10 + p11)[:4]}" if p10 or p11 else ""),
    )


def _so12_example_set(z1: ExactScalar, z2: ExactScalar) -> bool:
    s = z1 + z2
    return (
        _int_at_least(z1, 0)
        or ((z1 == sc(-1) or (not z1.is_integer and not z2.is_integer))
            and _int_at_least(s, -4))
        or (z1 == z2 and z1.is_rational
            and (z1.rational + Fraction(3, 2)).denominator == 1
            and z1.rational >= Fraction(-3, 2))
        or _int_at_least(z2, -2)
    )


def _so14_example_set(z1: ExactScalar, z2: ExactScalar) -> bool:
    s = z1 + z2
    return (
        _int_at_least(z1, 0)
        or _int_at_least(z2, 0)
        or (z1 == z2 and z1.is_rational
            and (2 * (z1.rational + 3)).denominator == 1
            and z1.rational >= -3)
        or _int_at_least(s, -6)
    )


def test_criterion_3_so12_so14_examples():
    results = []
    for setup, member, boundary_red, boundary_irr in (
        (ParabolicSetup(D(6), 1, 5), _so12_example_set, sc("-3/2"), sc("-5/2")),
        (ParabolicSetup(D(7), 6, 7), _so14_example_set, sc(-3), sc("-7/2")),
    ):
        start = time.perf_counter()
        rows = sweep(setup, standard_grid(setup)).rows
        bad = [
            (str(r.z1), str(r.z2), r.verdict.reducible)
            for r in rows
            if r.verdict.reducible != member(r.z1, r.z2)
        ]
        elapsed = time.perf_counter() - start
        first = evaluate(setup, boundary_red, boundary_red).reducible
        prev = evaluate(setup, boundary_irr, boundary_irr).reducible
        results.append((len(rows), elapsed, bad, first, not prev))
    ok = all(not bad and first and prev and t < 10 for n, t, bad, first, prev in results)
    _report(
        3,
        ok,
        "; ".join(
            f"{n} pts in {t:.1f}s boundary={'ok' if first and prev else 'BAD'}"
            + (f" bad={bad[:3]}" if bad else "")
            for n, t, bad, first, prev in results
        ),
    )


def test_criterion_4_theorem_vs_oracle_families():
    start = time.perf_counter()
    rep_a = verify_family("A", 9)
    rep_d = verify_family("D", 8)
    elapsed = time.perf_counter() - start
    ok = rep_a.ok and rep_d.ok and elapsed < 300
    _report(
        4,
        ok,
        f"A<=9: {rep_a.points_checked} pts / {len(rep_a.mismatches)} mismatches; "
        f"D<=8: {rep_d.points_checked} pts / {len(rep_d.mismatches)} mismatches; "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_three_column_shape_equivalence():
    checked = 0
    problems = []
    for setup in family_setups("A", 8):
        n = setup.n
        points = [(sc(z1), sc(z2)) for z1 in range(-(n + 2), 4) for z2 in range(-(n + 2), 4)]
        # GK dimensions through one sweep's memo, in both orders
        gk = {}
        for order in (points, points[::-1]):
            for row in sweep(setup, ParameterGrid((), (), tuple(order))).rows:
                gk.setdefault((row.z1, row.z2), []).append(row.verdict.gk)
        for z1, z2 in points:
            shape_max = has_maximal_shape(setup, shifted_weight(setup, z1, z2))
            attained = [dim == setup.dim_u for dim in gk.get((z1, z2), [])]
            checked += 1
            if attained != [shape_max] * 2:
                problems.append((setup, z1, z2))
    _report(5, not problems, f"{checked} integral points" + (f"; first={problems[:1]}" if problems else ""))


def test_criterion_6_single_weight_consistency():
    checked = 0
    problems = []
    for n in range(2, 10):
        lie = A(n)
        rho = dense_gk.weyl_vector(lie)
        zs = [sc(Fraction(k, 2)) for k in range(-2 * (n + 2), 7)]
        zs += [sc("1/3"), TAU]
        for p in range(1, n):
            xi = dense_gk.fundamental_weight(lie, p)
            for z in zs:
                weight = tuple(z * x.rational + r for x, r in zip(xi, rho))
                gk = dense_gk.gk_dimension_of_weight(weight, lie)
                oracle = gk < p * (n - p)
                checked += 1
                if oracle != single_weight_reducible(n, p, z):
                    problems.append((n, p, str(z)))
    _report(6, not problems, f"{checked} points" + (f"; first={problems[:3]}" if problems else ""))


def _random_setup(rng):
    if rng.random() < 0.6:
        n = rng.randint(3, 8)
        p = rng.randint(1, n - 2)
        q = rng.randint(p + 1, n - 1)
        return ParabolicSetup(A(n), p, q)
    n = rng.randint(4, 7)
    p, q = rng.choice(((1, n - 1), (1, n), (n - 1, n)))
    return ParabolicSetup(D(n), p, q)


def _random_scalar(rng):
    value = ExactScalar(Fraction(rng.randint(-12, 6), rng.choice((1, 1, 2, 3))))
    roll = rng.random()
    if roll < 0.25:
        return value + TAU
    if roll < 0.35:
        return value - TAU
    if roll < 0.45:
        return value + SIGMA
    return value


def test_criterion_7_property_suite():
    rng = random.Random(20240817)
    problems = []

    for _ in range(1000):
        setup = _random_setup(rng)
        z1, z2 = _random_scalar(rng), _random_scalar(rng)
        base = gk_dimension(setup, z1, z2)
        if gk_dimension(setup, z1 + 1, z2) > base or gk_dimension(setup, z1, z2 + 1) > base:
            problems.append(("monotonicity", setup, str(z1), str(z2)))

    for _ in range(300):
        length = rng.randint(0, 9)
        shift = TAU if rng.random() < 0.3 else sc(rng.randint(-3, 3))
        values = [rng.randint(-4, 4) for _ in range(length)]
        shape = rs_shape(tuple(sc(v) + shift for v in values))
        if sum(shape) != length or any(
            shape[i] < shape[i + 1] for i in range(len(shape) - 1)
        ):
            problems.append(("shape-partition", values))
        ev, odd = even_odd_counts(shape)
        if tuple(e + o for e, o in zip(ev, odd)) != shape:
            problems.append(("even-odd-complement", shape))

    # integral points of random setups, drawn until 500 are checked
    integral = 0
    while integral < 500:
        setup = _random_setup(rng)
        z1, z2 = (sc(Fraction(rng.randint(-12, 6), rng.choice((1, 2)))) for _ in range(2))
        weight = shifted_weight(setup, z1, z2)
        classes, _, _, others = dense_gk.classes(weight, setup.lie.kind)
        if len(classes) != 1 or others:
            continue
        integral += 1
        if gk_dimension(setup, z1, z2) != gk_dimension_integral(weight, setup.lie):
            problems.append(("integral-path", setup, str(z1), str(z2)))

    def longest_weakly_increasing(values):
        best = [0] * len(values)
        for i, v in enumerate(values):
            best[i] = 1 + max((best[j] for j in range(i) if values[j] <= v), default=0)
        return max(best, default=0)

    count = 0
    for length in range(0, 7):
        for values in itertools.product(range(4), repeat=length):
            shape = rs_shape(tuple(sc(v) for v in values))
            count += 1
            if values and shape[0] != longest_weakly_increasing(values):
                problems.append(("lis-oracle", values))
    _report(
        7,
        not problems,
        f"1000 monotonicity, 300 shape, 500 integral, {count} subsequence checks"
        + (f"; first={problems[:2]}" if problems else ""),
    )


def test_criterion_8_determinism_and_formats():
    setup = ParabolicSetup(A(6), 2, 4)
    grid = standard_grid(setup)
    first, second = sweep(setup, grid), sweep(setup, grid)
    csv_a, csv_b = report_to_csv(first), report_to_csv(second)
    json_a, json_b = report_to_json(first), report_to_json(second)
    svg_a, svg_b = render_diagram(first, "svg"), render_diagram(second, "svg")
    problems = []
    if not (csv_a == csv_b and json_a == json_b and svg_a == svg_b):
        problems.append("repeated sweeps differ")
    if csv_a.split("\n", 1)[0] != "type,n,p,q,z1,z2,gk,dim_u,reducible,criterion,agree":
        problems.append("csv header")
    import json as json_mod
    import re

    payload = json_mod.loads(json_a)
    if not (isinstance(payload["rows"], list) and "summary" in payload):
        problems.append("json structure")
    scalar_re = re.compile(
        r"^-?\d+(/\d+)?([+-](\d+(/\d+)?\*)?(tau|sigma))*$|^[+-]?((\d+(/\d+)?\*)?(tau|sigma))([+-](\d+(/\d+)?\*)?(tau|sigma))*$"
    )
    for line in csv_a.strip().split("\n")[1:]:
        z1 = line.split(",")[4]
        if not scalar_re.match(z1):
            problems.append(f"csv scalar format: {z1}")
            break
    root = ET.fromstring(svg_a)
    ns = root.tag[: -len("svg")]
    reducible_rational = sum(
        1
        for r in first.rows
        if r.z1.is_rational and r.z2.is_rational and r.verdict.reducible
    )
    if len(root.findall(f"{ns}circle")) != reducible_rational:
        problems.append("svg circle count")
    if not root.findall(f"{ns}line"):
        problems.append("svg lines missing")
    ascii_art = render_diagram(first, "ascii")
    if "R" not in ascii_art or "·" not in ascii_art:
        problems.append("ascii grid")
    _report(8, not problems, ", ".join(problems) if problems else "csv/json/svg/ascii stable")
