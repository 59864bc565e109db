"""Command-line front end.

Scalar syntax, one grammar for ``--z1``, ``--z2``, ``rs --seq`` entries and
grid bounds and steps (which take no symbol part): a sum of terms, each
after the first starting with a sign, and none with two (``--5`` is
rejected).  A term is ``tau``, ``sigma`` (the only symbol names), or a
rational (``a/b``, or a decimal with an optional signed exponent such as
``1e-3``) optionally times a symbol: ``1/2+tau``, ``2-3/2*sigma``.  Digits
are ASCII only, underscores are refused and spaces are dropped.  Every
scalar the tool prints re-parses to an equal value.  Values starting with
``-`` are safest passed as ``--z1=-5/2``.  The integer flags (``--n``,
``--p``, ``--q``, ``--max-n``) take an optional ``-`` and then ASCII
digits, at most ``MAX_DIGITS`` of them (``_integer``).

Exit codes: 0 success; 1 a verification mismatch, or points whose
evaluation raised (``sweep`` and ``diagram`` print on stderr how many and
the first); 2 a usage or validation error, before any work, printed as one
stderr line with its reason, a refused flag value after the flag's name
(``error: argument --z1: bad scalar '1/0': zero denominator``); a value
longer than ``_QUOTED_CHARS`` (40) characters is quoted by its first ones
and its length, in argparse's own refusals too (``_Parser.error``).  Refused
are: an ``--n`` above ``MAX_RANK`` (2 000), an ``rs --seq`` of more entries
than that, a verify ``--max-n`` below the family's smallest rank or whose
standard grids would hold more than ``harness.MAX_FAMILY_POINTS``
(1 000 000) points (above 14 for type A or 43 for type D, runs that took
0.29-0.42 s and 1.17-1.44 s on 2 CPUs of an Intel Xeon), a custom grid
with ``--hi`` below ``--lo`` or larger than ``harness.MAX_GRID_POINTS``,
a zero denominator, a scalar, grid bound or custom grid point with more
digits than an int prints with (``MAX_DIGITS``), ``--lo``/``--hi``/``--step``
without ``--grid custom`` and an ``--out`` path that cannot be opened for
writing.  An existing
``--out`` file keeps its contents until the output text exists; a
``diagram --out`` file that did not exist is removed when the run exits 1.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from .exact import SYMBOLS, ExactScalar
from .gk import gk_dimension
from .harness import (
    FAMILY_MIN_N,
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
# Most characters of a refused value that its refusal quotes.
_QUOTED_CHARS = 40
# Most characters of an argparse refusal left whole after ``error: ``.
_LINE_CHARS = 180

_SYMBOL = "|".join(SYMBOLS)
# One term of a scalar: an optional sign, then a bare symbol, or a rational
# (a/b, or a decimal with an optional signed exponent) with an optional
# *symbol.  ASCII digits only.
_TERM = re.compile(
    rf"""(?P<sign>[-+])?
    (?: (?P<bare>{_SYMBOL})
      | (?=\.?\d)(?P<num>\d*)
        (?: /(?P<den>\d+) | (?:\.(?P<dec>\d*))? (?:[eE](?P<exp>[-+]?\d+))? )
        (?:\*(?P<name>{_SYMBOL}))? )""",
    re.ASCII | re.VERBOSE,
)


class BadValue(ValueError, argparse.ArgumentTypeError):
    """A refused value; raised by a ``type=`` function, it follows the flag name."""


# A word of an argparse refusal: a value argparse quoted with repr, or a
# run of non-spaces, such as an unrecognized argument.
_WORD = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+""")


def _shortened(word: re.Match) -> str:
    """A word of an argparse refusal, quoted by ``_quoted`` when it is
    longer than ``_QUOTED_CHARS``."""
    text = word.group()
    if len(text) <= _QUOTED_CHARS:
        return text
    if text[0] in "'\"":  # the repr of the refused value
        from ast import literal_eval  # only a long refusal loads it

        try:
            text = literal_eval(text)
        except (SyntaxError, ValueError):  # quotes inside a bare word
            pass
    return _quoted(text)


class _Parser(argparse.ArgumentParser):
    """Raises each refusal as a ``BadValue``, for ``main`` to print on one
    line.  argparse's own refusals quote a long value whole; ``error``
    shortens each long word as ``_quoted`` does, and then a line still
    longer than ``_LINE_CHARS`` (many short words) past its reason."""

    def error(self, message):
        # argparse quotes a bad value, but not an unrecognized argument
        line = _WORD.sub(_shortened, " ".join(message.splitlines()))
        if len(line) > _LINE_CHARS:
            reason, colon, rest = line.partition(": ")
            short = colon and len(reason) <= _QUOTED_CHARS
            line = f"{reason}: {_quoted(rest)}" if short else _quoted(line)
        raise BadValue(line)


def _quoted(text: str) -> str:
    """``text`` quoted for a refusal: whole, or when longer than
    ``_QUOTED_CHARS`` its first characters and its length."""
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def _prints(value: Fraction) -> bool:
    """Whether the numerator and denominator of ``value`` each print with
    at most ``MAX_DIGITS`` digits."""
    return abs(value.numerator) < _TOO_LONG and value.denominator < _TOO_LONG


def _coefficient(text: str, term: re.Match) -> Fraction:
    """A term's rational, ``num/den`` or ``num.dec`` times ``10**exp``.  A
    digit string longer than ``MAX_DIGITS``, or a numerator or denominator
    that would print with more digits, is refused before it is built."""
    num, den, dec, exp = term.group("num", "den", "dec", "exp")
    digits, dec, exp = num + (dec or ""), dec or "", exp or "0"
    # the decimal is int(digits) * 10**shift; an exponent too long to read
    # gets a shift that is refused
    shift = int(exp) - len(dec) if len(exp) <= MAX_DIGITS else MAX_DIGITS + 1
    sizes = (len(digits), len(den or ""), len(digits.lstrip("0")) + shift, 1 - shift)
    if max(sizes) > MAX_DIGITS:
        raise BadValue(f"bad scalar {_quoted(text)}: more than {MAX_DIGITS} digits")
    if den is not None and not int(den):
        raise BadValue(f"bad scalar {_quoted(text)}: zero denominator")
    return Fraction(int(digits) * 10 ** max(shift, 0), int(den or 1) * 10 ** max(-shift, 0))


def parse_scalar(text: str) -> ExactScalar:
    """Parse the CLI scalar syntax into an ExactScalar."""
    s = text.replace(" ", "")
    sums: dict[str | None, Fraction] = {}  # symbol name (None: rational) -> coefficient
    pos = 0
    while pos < len(s) or not sums:
        term = _TERM.match(s, pos)
        if not term or (pos and not term["sign"]):  # a sign starts each later term
            raise BadValue(f"bad scalar {_quoted(text)}")
        value = Fraction(1) if term["bare"] else _coefficient(text, term)
        name = term["bare"] or term["name"]
        sums[name] = sums.get(name, 0) + (-value if term["sign"] == "-" else value)
        pos = term.end()
    # printable terms may sum past the limit
    if not all(map(_prints, sums.values())):
        raise BadValue(f"bad scalar {_quoted(text)}: more than {MAX_DIGITS} digits")
    return ExactScalar(sums.pop(None, Fraction(0)), sums)


def _integer(text: str) -> int:
    """An integer flag: an optional ``-``, then ASCII digits, at most
    ``MAX_DIGITS`` of them."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise BadValue(f"bad integer {_quoted(text)}")
    if len(digits) > MAX_DIGITS:
        raise BadValue(f"bad integer {_quoted(text)}: more than {MAX_DIGITS} digits")
    return int(text)


def _rational(text: str) -> Fraction:
    """A grid bound or step: a scalar with no symbol part."""
    value = parse_scalar(text)
    if not value.is_rational:
        raise BadValue(f"{_quoted(text)} is not rational")
    return value.rational


def _setup_from_args(args) -> ParabolicSetup:
    if args.n > MAX_RANK:
        raise ValueError(f"--n must be at most {MAX_RANK}, got {args.n}")
    return ParabolicSetup(LieType(args.type, args.n), args.p, args.q)


def _add_setup_flags(parser):
    parser.add_argument("--type", required=True, choices=("A", "D"))
    parser.add_argument("--n", required=True, type=_integer)
    parser.add_argument("--p", required=True, type=_integer)
    parser.add_argument("--q", required=True, type=_integer)


def _add_parameter_flags(parser):
    parser.add_argument("--z1", required=True, type=parse_scalar)
    parser.add_argument("--z2", required=True, type=parse_scalar)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_verify.add_argument("--max-n", required=True, type=_integer)

    p_diag = sub.add_parser("diagram", help="reducible-point diagram")
    _add_setup_flags(p_diag)
    p_diag.add_argument("--out", help="SVG output path")
    p_diag.add_argument("--ascii", action="store_true", help="print ASCII grid")

    return parser


def _open_out(out_path: str | None):
    """The output file and whether this call created it.  It is opened
    before any work so a bad path fails at once, but for appending, so an
    existing file keeps its contents until ``_write`` replaces them."""
    if not out_path:
        return nullcontext(sys.stdout), False
    try:
        try:
            return open(out_path, "x", encoding="utf-8"), True
        except FileExistsError:
            return open(out_path, "a", encoding="utf-8"), False
    except OSError as exc:
        raise ValueError(f"cannot write {out_path!r}: {exc.strerror}") from None


def _write(out, text: str) -> None:
    """Replace what ``out`` holds with ``text``, once the text exists."""
    if out is not sys.stdout:
        out.seek(0)
        out.truncate()
    out.write(text)


def _raised(report) -> int:
    """0, or 1 after naming on stderr how many sweep points raised and the first."""
    if not report.errors:
        return 0
    z1, z2, exc = report.errors[0]
    count = f"{len(report.errors)} of {len(report.rows) + len(report.errors)} points"
    print(f"error: {count} raised, first z1={z1} z2={z2}: {exc}", file=sys.stderr)
    return 1


def _key_values(setup: ParabolicSetup, row: SweepRow) -> str:
    """A row as ``key=value`` pairs in ``ROW_FIELDS`` order."""
    return " ".join(f"{k}={format_field(v)}" for k, v in row_record(setup, row).items())


def _cmd_gkdim(args) -> int:
    setup = _setup_from_args(args)
    gk = gk_dimension(setup, args.z1, args.z2)
    print(f"gk={gk} dim_u={setup.dim_u}")
    return 0


def _cmd_reduce(args) -> int:
    setup = _setup_from_args(args)
    row = SweepRow((args.z1, args.z2, evaluate(setup, args.z1, args.z2)))
    if args.format == "json":
        import json  # only JSON output loads it

        print(json.dumps(row_record(setup, row)))
    else:
        print(_key_values(setup, row))
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
    with _open_out(args.out)[0] as out:
        report = sweep(setup, grid)
        _write(out, report_to_csv(report) if args.format == "csv" else report_to_json(report))
    return _raised(report)


def _cmd_verify(args) -> int:
    smallest = FAMILY_MIN_N[args.type]
    if args.max_n < smallest:
        raise ValueError(
            f"--max-n must be at least {smallest} for type {args.type}, got {args.max_n}"
        )
    report = verify_family(args.type, args.max_n)
    for setup, row in report.mismatches:
        print("mismatch " + _key_values(setup, row))
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
    opened, created = _open_out(args.out)
    with opened as out:
        report = sweep(setup, standard_grid(setup))
        if not report.errors:  # a picture with points missing would mislead
            _write(out, render_diagram(report, "ascii" if args.ascii else "svg"))
            return 0
    if created:  # no empty file is left behind
        os.remove(args.out)
    return _raised(report)


_COMMANDS = {
    "gkdim": _cmd_gkdim,
    "reduce": _cmd_reduce,
    "rs": _cmd_rs,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "diagram": _cmd_diagram,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help, after printing the help
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
