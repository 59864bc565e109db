"""Command-line front end.

Scalar syntax at the CLI boundary: a rational (``-2``, ``5/2``) optionally
combined with generic symbol terms (``tau``, ``sigma``), e.g. ``1/2+tau``,
``-5/2-tau``, ``2-3/2*sigma``.  Exactly the two symbol names tau and sigma
are accepted.  Every scalar the tool prints re-parses to an equal value.
Values starting with ``-`` are safest passed as ``--z1=-5/2``.

Exit codes: 0 success, 1 verification mismatch, 2 usage or validation error
(including an ``--n`` above ``MAX_RANK`` (2 000), an ``rs --seq`` of more
than ``MAX_RANK`` comma-separated entries, a verify ``--max-n``
below the family's smallest rank, a verify ``--max-n`` whose family's
standard grids would hold more than ``harness.MAX_FAMILY_POINTS``
(1 000 000) points, that is above 14 for type A or 43 for type D, where
a run takes about 6 s and 10 s, a custom grid larger than
``harness.MAX_GRID_POINTS``, a zero denominator in a scalar, a scalar,
grid bound or custom grid point with more digits than an int prints with
(``MAX_DIGITS``),
``--lo``/``--hi``/``--step`` without ``--grid custom`` and an ``--out``
path that cannot be opened for writing; all before any work).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from .exact import ExactScalar
from .gk import gk_dimension
from .harness import (
    FAMILY_MIN_N,
    GENERIC_NAMES,
    GridSpec,
    SweepRow,
    format_field,
    grid_from_spec,
    render_diagram,
    report_to_csv,
    report_to_json,
    row_record,
    standard_grid,
    sweep,
    verify_family,
)
from .rootdata import LieType, ParabolicSetup
from .tableaux import render_tableau, rs_tableau
from .verdict import evaluate

# Largest --n a command accepts, and most entries `rs --seq` accepts.  A
# gkdim or reduce point at this cap takes about 0.09 s with interpreter
# start; an rs sequence costs time up to quadratic in its length, about
# 0.4 s for this many increasing or equal entries.
MAX_RANK = 2_000
# Most digits an int prints with: the interpreter's limit, 4 300 by default.
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_TOO_LONG = 10**MAX_DIGITS


def _prints(value: Fraction) -> bool:
    """Whether the numerator and denominator of ``value`` each print with
    at most ``MAX_DIGITS`` digits."""
    return abs(value.numerator) < _TOO_LONG and value.denominator < _TOO_LONG


def parse_scalar(text: str) -> ExactScalar:
    """Parse the CLI scalar syntax into an ExactScalar."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    tokens = []
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-*/":
            tokens.append(s[start:i])
            start = i
    tokens.append(s[start:])
    rational = Fraction(0)
    generic: dict[str, Fraction] = {}
    for tok in tokens:
        sign = Fraction(1)
        body = tok
        if body and body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        if not body:
            raise ValueError(f"bad scalar {text!r}")
        name, coeff = None, body
        for candidate in GENERIC_NAMES:
            if body == candidate:
                name, coeff = candidate, "1"
                break
            if body.endswith("*" + candidate):
                name, coeff = candidate, body[: -len(candidate) - 1]
                break
        try:
            value = sign * _rational(coeff)
        except ValueError as exc:
            raise ValueError(f"bad scalar {text!r}: {exc}") from None
        if name is None:
            rational += value
        else:
            generic[name] = generic.get(name, Fraction(0)) + value
    # printable terms may sum past the limit
    if not all(map(_prints, (rational, *generic.values()))):
        raise ValueError(f"bad scalar {text!r}: more than {MAX_DIGITS} digits")
    return ExactScalar(rational, generic)


# Fraction's string syntax, loosened: what this does not match, Fraction rejects.
_COEFFICIENT = re.compile(
    r"\s*[-+]?([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)\s*"
)


def _rational(text: str) -> Fraction:
    """A grid bound or step, or a scalar's coefficient.  A zero denominator
    is a ValueError, and so, before any big integer is built, is a numerator
    or denominator spelled with more than ``MAX_DIGITS`` digits."""
    match = _COEFFICIENT.fullmatch(text)
    if match:
        num, den, dec, exp = (part.replace("_", "") if part else "" for part in match.groups())
        shift = int(exp or 0) - len(dec)  # text = int(num + dec) * 10**shift / int(den or 1)
        sizes = (len((num + dec).lstrip("0")) + max(shift, 0), len(den.lstrip("0")), 1 - shift)
        if max(sizes) > MAX_DIGITS:
            raise ValueError(f"{text!r} has more than {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _setup_from_args(args) -> ParabolicSetup:
    if args.n > MAX_RANK:
        raise ValueError(f"--n must be at most {MAX_RANK}, got {args.n}")
    return ParabolicSetup(LieType(args.type, args.n), args.p, args.q)


def _add_setup_flags(parser):
    parser.add_argument("--type", required=True, choices=("A", "D"))
    parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--p", required=True, type=int)
    parser.add_argument("--q", required=True, type=int)


def _add_parameter_flags(parser):
    parser.add_argument("--z1", required=True, type=parse_scalar)
    parser.add_argument("--z2", required=True, type=parse_scalar)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvmred",
        description="Reducibility of scalar generalized Verma modules for "
        "sl(n,C) and so(2n,C) with two removed simple roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gkdim = sub.add_parser("gkdim", help="GK dimension and dim u at one point")
    _add_setup_flags(p_gkdim)
    _add_parameter_flags(p_gkdim)

    p_reduce = sub.add_parser("reduce", help="full verdict at one point")
    _add_setup_flags(p_reduce)
    _add_parameter_flags(p_reduce)
    p_reduce.add_argument("--format", choices=("text", "json"), default="text")

    p_rs = sub.add_parser("rs", help="insertion tableau and shape of a sequence")
    p_rs.add_argument("--seq", required=True, help="comma-separated scalars")

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    _add_setup_flags(p_sweep)
    p_sweep.add_argument("--grid", choices=("standard", "custom"), default="standard")
    p_sweep.add_argument("--lo", type=_rational, help="custom grid lower bound")
    p_sweep.add_argument("--hi", type=_rational, help="custom grid upper bound")
    p_sweep.add_argument("--step", type=_rational, help="custom grid step (default 1/2)")
    p_sweep.add_argument("--out", help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="criterion vs oracle over a family")
    p_verify.add_argument("--type", required=True, choices=("A", "D"))
    p_verify.add_argument("--max-n", required=True, type=int)

    p_diag = sub.add_parser("diagram", help="reducible-point diagram")
    _add_setup_flags(p_diag)
    p_diag.add_argument("--out", help="SVG output path")
    p_diag.add_argument("--ascii", action="store_true", help="print ASCII grid")

    return parser


def _open_out(out_path: str | None):
    """The output file, opened before any work so a bad path fails at once."""
    if not out_path:
        return nullcontext(sys.stdout)
    try:
        return open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None


def _cmd_gkdim(args) -> int:
    setup = _setup_from_args(args)
    gk = gk_dimension(setup, args.z1, args.z2)
    print(f"gk={gk} dim_u={setup.dim_u}")
    return 0


def _cmd_reduce(args) -> int:
    setup = _setup_from_args(args)
    verdict = evaluate(setup, args.z1, args.z2)
    record = row_record(setup, SweepRow(args.z1, args.z2, verdict))
    if args.format == "json":
        print(json.dumps(record))
    else:
        print(" ".join(f"{key}={format_field(value)}" for key, value in record.items()))
    return 0


def _cmd_rs(args) -> int:
    entries = args.seq.count(",") + 1
    if entries > MAX_RANK:
        raise ValueError(f"--seq must have at most {MAX_RANK} entries, got {entries}")
    tableau = rs_tableau(tuple(parse_scalar(part) for part in args.seq.split(",")))
    print(render_tableau(tableau))
    print("shape: " + " ".join(str(len(row)) for row in tableau))
    return 0


def _cmd_sweep(args) -> int:
    setup = _setup_from_args(args)
    if args.grid == "custom":
        if args.lo is None or args.hi is None:
            raise ValueError("custom grid needs --lo and --hi")
        step = Fraction(1, 2) if args.step is None else args.step
        spec = GridSpec(lo=args.lo, hi=args.hi, step=step)
        # bounds and step that print can give points that do not
        if not all(map(_prints, spec.rationals())):
            raise ValueError(f"custom grid point has more than {MAX_DIGITS} digits")
        grid = grid_from_spec(spec)
    elif (args.lo, args.hi, args.step) != (None, None, None):
        raise ValueError("--lo, --hi and --step need --grid custom")
    else:
        grid = standard_grid(setup)
    with _open_out(args.out) as out:
        report = sweep(setup, grid)
        out.write(report_to_csv(report) if args.format == "csv" else report_to_json(report))
    return 0


def _cmd_verify(args) -> int:
    smallest = FAMILY_MIN_N[args.type]
    if args.max_n < smallest:
        raise ValueError(
            f"--max-n must be at least {smallest} for type {args.type}, got {args.max_n}"
        )
    report = verify_family(args.type, args.max_n)
    for setup, row in report.mismatches:
        record = row_record(setup, row)
        print("mismatch " + " ".join(f"{k}={format_field(v)}" for k, v in record.items()))
    if report.errors:
        setup, z1, z2, exc = report.errors[0]
        print(
            f"first error type={setup.lie.kind} n={setup.n} p={setup.p} q={setup.q} "
            f"z1={z1} z2={z2}: {exc}"
        )
    checked = f"verified {report.setups_checked} setups, {report.points_checked} points"
    if report.ok:
        print(f"{checked}: no mismatches, no errors")
        return 0
    print(
        f"{checked} of {report.grid_points}: "
        f"{len(report.mismatches)} mismatches, {len(report.errors)} errors"
    )
    return 1


def _cmd_diagram(args) -> int:
    setup = _setup_from_args(args)
    if bool(args.out) == bool(args.ascii):
        raise ValueError("diagram needs exactly one of --out FILE.svg or --ascii")
    with _open_out(args.out) as out:
        report = sweep(setup, standard_grid(setup))
        out.write(render_diagram(report, "ascii" if args.ascii else "svg"))
    return 0


_COMMANDS = {
    "gkdim": _cmd_gkdim,
    "reduce": _cmd_reduce,
    "rs": _cmd_rs,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "diagram": _cmd_diagram,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
