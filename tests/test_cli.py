import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gvmred import (
    ExactScalar,
    LieType,
    MismatchReport,
    ParabolicSetup,
    family_setups,
    standard_grid,
    symbol,
)
from gvmred.cli import MAX_DIGITS, main, parse_scalar

from conftest import SIGMA, TAU, saturated_form_values, sc, scalars


def test_parse_scalar_syntaxes():
    assert parse_scalar("-2") == sc(-2)
    assert parse_scalar("-5/2") == sc("-5/2")
    assert parse_scalar("1/2+tau") == sc("1/2") + TAU
    assert parse_scalar("tau") == TAU
    assert parse_scalar("-tau") == -TAU
    assert parse_scalar("2-3/2*sigma") == ExactScalar(2, {"sigma": Fraction(-3, 2)})
    assert parse_scalar("1/3+2*tau") == ExactScalar(Fraction(1, 3), {"tau": 2})
    assert parse_scalar("3/4+tau-sigma") == ExactScalar(
        Fraction(3, 4), {"tau": 1, "sigma": -1}
    )


def test_parse_scalar_rejects_unknown_symbols():
    # a sign starts each term after the first
    unsigned = ("2tau", "tau2", "tausigma", "1.5.5", "3/4.5", "1e3.5*tau")
    for bad in ("theta", "1/2+rho", "", "2**tau", "1//2", *unsigned):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_parse_scalar_rejects_doubled_signs(capsys):
    # a term takes at most one sign, rational or symbolic
    for bad in ("--5", "5--3", "+-1/2", "-+2", "--tau", "1/2+-tau", "--3/2*sigma"):
        with pytest.raises(ValueError, match="bad scalar"):
            parse_scalar(bad)
    reduce = ["reduce", "--type", "A", "--n", "5", "--p", "1", "--q", "3", "--z2=0"]
    for z1 in ("--z1=--5", "--z1=--tau"):
        assert main([*reduce, z1]) == 2, z1
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --z1" in captured.err


def test_parse_scalar_keeps_signed_exponents(capsys):
    assert parse_scalar("1e-3") == sc(Fraction("1e-3"))
    assert parse_scalar("-1e+3") == sc(Fraction("-1e+3"))
    assert parse_scalar("1.5e-1*tau") == ExactScalar(0, {"tau": Fraction("1.5e-1")})
    assert parse_scalar("2-1e-3*sigma") == ExactScalar(2, {"sigma": -Fraction("1e-3")})
    reduce = ["reduce", "--type", "A", "--n", "4", "--p", "1", "--q", "2"]
    assert main([*reduce, "--z1=1e-3", "--z2=0"]) == 0
    assert "z1=1/1000" in capsys.readouterr().out.split()
    for bad in ("--5", "1e--3", "1e-", "1e-5000"):
        with pytest.raises(ValueError, match="bad scalar"):
            parse_scalar(bad)
        assert main([*reduce, f"--z1={bad}", "--z2=0"]) == 2, bad
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_scalar("1e-5000")


def test_scalar_round_trip():
    samples = [
        sc(0),
        sc(-7),
        sc("5/3"),
        sc("-5/2"),
        TAU,
        -TAU,
        sc(2) - TAU,
        sc("-1/2") + SIGMA,
        ExactScalar(Fraction(1, 3), {"tau": Fraction(3, 2), "sigma": -1}),
    ]
    for s in samples:
        assert parse_scalar(str(s)) == s


cli_scalars = st.builds(
    lambda r, t, s: ExactScalar(r, {"tau": t, "sigma": s}),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2))),
)


@given(cli_scalars)
def test_printed_scalars_parse_back(x):
    assert parse_scalar(str(x)) == x


def test_gkdim_command(capsys):
    code = main(
        ["gkdim", "--type", "A", "--n", "8", "--p", "2", "--q", "5", "--z1=-2", "--z2=-2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "dim_u=21" in out
    assert out.startswith("gk=")


def test_reduce_text_output(capsys):
    code = main(
        ["reduce", "--type", "A", "--n", "8", "--p", "2", "--q", "5", "--z1=-2", "--z2=-2"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert "dim_u=21" in out
    assert "reducible=true" in out
    assert "agree=true" in out
    fields = dict(part.split("=", 1) for part in out.split())
    assert int(fields["gk"]) < int(fields["dim_u"])
    assert parse_scalar(fields["z1"]) == sc(-2)


def test_reduce_json_output(capsys):
    code = main(
        [
            "reduce",
            "--type", "D", "--n", "6", "--p", "1", "--q", "5",
            "--z1=-3/2", "--z2=-3/2",
            "--format", "json",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["reducible"] is True
    assert record["reducible"] == (record["gk"] < record["dim_u"])
    assert parse_scalar(record["z1"]) == sc("-3/2")


def test_rs_command(capsys):
    code = main(["rs", "--seq", "5,3,3,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "1 3\n3\n5\nshape: 2 1 1\n"


def test_rs_seq_cap_is_checked_before_parsing(capsys, monkeypatch):
    """``rs`` takes up to ``MAX_RANK`` entries; one more exits 2, counted on
    the raw text before any entry is parsed."""
    import gvmred.cli as cli_mod

    cap = cli_mod.MAX_RANK
    assert main(["rs", "--seq", ",".join(["0"] * cap)]) == 0
    assert capsys.readouterr().out == " ".join(["0"] * cap) + f"\nshape: {cap}\n"

    def no_parse(text):
        raise AssertionError("an entry was parsed")

    monkeypatch.setattr(cli_mod, "parse_scalar", no_parse)
    assert main(["rs", "--seq", ",".join(["0"] * (cap + 1))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at most {cap} entries, got {cap + 1}" in captured.err


def test_sweep_command_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--type", "A", "--n", "5", "--p", "1", "--q", "3",
            "--grid", "custom", "--lo=-3", "--hi=0",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "type,n,p,q,z1,z2,gk,dim_u,reducible,criterion,agree"
    assert len(lines) > 1
    code2 = main(
        [
            "sweep",
            "--type", "A", "--n", "5", "--p", "1", "--q", "3",
            "--grid", "custom", "--lo=-3", "--hi=0",
            "--out", str(out),
        ]
    )
    assert code2 == 0
    assert out.read_text().strip().split("\n") == lines


def test_sweep_command_json_stdout(capsys):
    code = main(
        [
            "sweep",
            "--type", "D", "--n", "4", "--p", "1", "--q", "4",
            "--grid", "custom", "--lo=-2", "--hi=0",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["mismatches"] == 0


def test_verify_command_clean(capsys):
    code = main(["verify", "--type", "D", "--max-n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no mismatches, no errors" in out


def test_verify_command_mismatch_exit_code(capsys, monkeypatch):
    import gvmred.cli as cli_mod
    from gvmred import LieType, ParabolicSetup, SweepRow, Verdict

    setup = ParabolicSetup(LieType("A", 5), 1, 3)
    row = SweepRow((sc(0), sc(0), Verdict(5, 8, True, False, False)))

    def fake_verify(kind, n_max):
        return MismatchReport(
            [(setup, row)], setups_checked=1, points_checked=1, errors=[], grid_points=1
        )

    monkeypatch.setattr(cli_mod, "verify_family", fake_verify)
    code = main(["verify", "--type", "A", "--max-n", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mismatch" in out


def test_verify_command_counts_errors(capsys, monkeypatch):
    import gvmred.verdict as verdict_mod

    def broken(setup, values):
        raise RuntimeError("criterion failed")

    monkeypatch.setattr(verdict_mod, "on_half_line", broken)
    code = main(["verify", "--type", "A", "--max-n", "3"])
    out = capsys.readouterr().out
    points = len(standard_grid(ParabolicSetup(LieType("A", 3), 1, 2)))
    assert code == 1
    assert f"verified 1 setups, 0 points of {points}: 0 mismatches, {points} errors" in out
    assert "criterion failed" in out


def test_sweep_rejects_nonpositive_step(capsys):
    for step in ("--step=0", "--step=-1/2"):
        argv = ["sweep", "--type", "A", "--n", "4", "--p", "1", "--q", "2"]
        argv += ["--grid", "custom", "--lo=0", "--hi=1", step]
        assert main(argv) == 2
        assert "step must be positive" in capsys.readouterr().err


def test_zero_denominator_exits_2(capsys):
    with pytest.raises(ValueError, match="bad scalar"):
        parse_scalar("1/0*tau")
    reduce = ["reduce", "--type", "A", "--n", "5", "--p", "1", "--q", "3"]
    custom = ["sweep", "--type", "A", "--n", "5", "--p", "1", "--q", "3", "--grid", "custom"]
    for argv in (
        [*reduce, "--z1=1/0*tau", "--z2=0"],
        [*reduce, "--z1=0", "--z2=2-3/0*sigma"],
        [*custom, "--lo=1/0", "--hi=1"],
        [*custom, "--lo=0", "--hi=1", "--step=1/0"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
    assert main(["rs", "--seq", "1/0*tau,1"]) == 2
    assert "bad scalar" in capsys.readouterr().err


_REDUCE = ["reduce", "--type", "A", "--n", "4", "--p", "1", "--q", "2"]
_CUSTOM = ["sweep", "--type", "A", "--n", "4", "--p", "1", "--q", "2", "--grid", "custom"]


@pytest.mark.parametrize(
    "argv, line",
    [
        ([*_REDUCE, "--z1=1e-5000", "--z2=0"], "argument --z1: bad scalar '1e-5000': more than 4300 digits"),
        ([*_REDUCE, "--z1=1/0*tau", "--z2=0"], "argument --z1: bad scalar '1/0*tau': zero denominator"),
        ([*_CUSTOM, "--lo", "nan", "--hi", "1"], "argument --lo: bad scalar 'nan'"),
        ([*_CUSTOM, "--lo=tau", "--hi", "1"], "argument --lo: 'tau' is not rational"),
        ([*_REDUCE, "--z1=1_000", "--z2=0"], "argument --z1: bad scalar '1_000'"),
        ([*_REDUCE, "--z1=0", "--z2=\u0661"], "argument --z2: bad scalar '\u0661'"),
        ([*_REDUCE, "--z1=0"], "the following arguments are required: --z2"),
        (
            ["verify", "--type", "B", "--max-n", "5"],
            "argument --type: invalid choice: 'B' (choose from 'A', 'D')",
        ),
        ([*_REDUCE, "--z1=0", "--z2=0", "--z3=a\nb"], "unrecognized arguments: --z3=a b"),
        (["verify", "--type", "A", "--max-n=1_0"], "argument --max-n: bad integer '1_0'"),
        (["verify", "--type", "A", "--max-n=\u0665"], "argument --max-n: bad integer '\u0665'"),
        (
            ["gkdim", "--type", "A", "--n=\u0665", "--p=1", "--q=3", "--z1=0", "--z2=0"],
            "argument --n: bad integer '\u0665'",
        ),
        ([*_REDUCE[:5], "--p=+1", "--q=2"], "argument --p: bad integer '+1'"),
        ([*_REDUCE[:7], "--q= 2"], "argument --q: bad integer ' 2'"),
        (
            ["verify", "--type", "D", f"--max-n={'9' * (MAX_DIGITS + 1)}"],
            f"argument --max-n: bad integer '{'9' * 40}'... ({MAX_DIGITS + 1} characters): "
            f"more than {MAX_DIGITS} digits",
        ),
    ],
    ids=[
        "digit-cap", "zero-denominator", "nan-bound", "symbolic-bound", "underscore",
        "arabic-indic", "missing-flag", "bad-choice", "unknown-flag", "integer-underscore",
        "integer-arabic-indic", "integer-rank", "integer-plus", "integer-space",
        "integer-digit-cap",
    ],
)
def test_refused_values_name_the_flag_and_the_reason(argv, line, capsys):
    """A refusal is one stderr line: argparse's reason word for word after
    the flag name, not "invalid <function> value", and no usage block."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {line}\n"
    assert "_rational" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--type", "D", f"--max-n={'9' * (MAX_DIGITS + 1)}"],
        ["verify", "--type", "D", f"--max-n={'9' * MAX_DIGITS}x"],
        [*_REDUCE, f"--z1={'1' * (MAX_DIGITS + 1)}", "--z2=0"],
        [*_REDUCE, f"--z1={'1+' * MAX_DIGITS}", "--z2=0"],
        [*_CUSTOM, f"--lo={'1+' * MAX_DIGITS}tau", "--hi=1"],
    ],
    ids=["integer-digit-cap", "integer-junk", "scalar-digit-cap", "scalar-junk", "symbolic-bound"],
)
def test_long_refused_values_give_a_short_line(argv, capsys):
    """A refusal quotes a prefix of a long value and its length, not the
    whole value."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert len(captured.err) < 200 and " characters)" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--type", "B" * 5000, "--max-n", "5"],
        ["verify", "--type", "A", "--max-n", "5", "x" * 5000],
        [*_REDUCE, "--z1=0", f"--z={'1' * 4998}"],
        ["q" * 5000],
        # long, but made of short words
        ["verify", "--type", "A", "--max-n", "5", "a " * 2500],
        [*_REDUCE, "--z1=0", f"--z={'1 ' * 2500}"],
    ],
    ids=[
        "invalid-choice",
        "unrecognized-argument",
        "ambiguous-option",
        "invalid-command",
        "unrecognized-short-words",
        "ambiguous-short-words",
    ],
)
def test_long_argparse_refusals_give_a_short_line(argv, capsys):
    """argparse's own refusals (a bad choice, an unrecognized or ambiguous
    argument) quote a long value by a prefix and its length too."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert len(captured.err) < 200 and " characters)" in captured.err


def test_inverted_custom_grid_exits_2_before_sweeping(capsys, monkeypatch):
    import gvmred.cli as cli_mod

    monkeypatch.setattr(cli_mod, "sweep", _no_sweep)
    assert main([*_CUSTOM, "--lo=1", "--hi=0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid bounds must have lo <= hi, got lo=1, hi=0\n"
    monkeypatch.undo()
    # lo == hi is a one-point axis
    assert main([*_CUSTOM, "--lo=1", "--hi=1"]) == 0
    z1 = {line.split(",")[4] for line in capsys.readouterr().out.splitlines()[1:]}
    assert z1 == {"1", "1/3", "tau", "sigma", "1+tau"}


def test_sweep_and_diagram_exit_1_when_points_raise(capsys, monkeypatch):
    import gvmred.gk as gk_mod
    from gvmred.exact import form_values, saturate

    setup = ParabolicSetup(LieType("A", 4), 1, 2)
    forms, windows, _, _, _ = setup.gk_key
    target = saturated_form_values(forms, windows, sc(-1), sc(0))

    def hits(exact):
        """The exact form values clamp to the target key."""
        return tuple(saturate((v,), w)[0] for v, w in zip(exact, windows)) == target

    gk_from_plan = gk_mod._gk_from_plan

    def broken_at_target(plan, exact):
        if hits(exact):
            raise RuntimeError("miss failed")
        return gk_from_plan(plan, exact)

    # a raising miss is not memoised, so every point of the key raises
    monkeypatch.setattr(gk_mod, "_gk_from_plan", broken_at_target)
    setup_flags = _REDUCE[1:]
    grid = standard_grid(setup)
    raising = [(z1, z2) for z1, z2 in grid.points() if hits(form_values(forms, z1, z2))]
    raised = len(raising)
    first_z1, first_z2 = raising[0]
    assert 1 < raised < len(grid)
    expected = (
        f"error: {raised} of {len(grid)} points raised, first z1={first_z1} z2={first_z2}: "
        "RuntimeError('miss failed')\n"
    )
    assert main(["sweep", *setup_flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == expected
    # the rows that evaluated are still written
    assert len(captured.out.splitlines()) == 1 + len(grid) - raised
    assert main(["diagram", *setup_flags, "--ascii"]) == 1
    captured = capsys.readouterr()
    assert captured.err == expected and captured.out == ""


_SCALAR_PIECES = [*"0123456789+-*/.eE_ ", "tau", "sigma", "\u0661"]


@given(st.lists(st.sampled_from(_SCALAR_PIECES), max_size=12).map("".join))
def test_parse_scalar_returns_a_printable_value_or_refuses(text):
    try:
        value = parse_scalar(text)
    except ValueError:
        return
    assert parse_scalar(str(value)) == value


def test_unprintable_scalars_exit_2_before_any_work(capsys, monkeypatch):
    """A coefficient too long to print back is refused while parsing,
    before its integers are built, however large its exponent."""
    import gvmred.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("a point was evaluated or a grid swept")

    monkeypatch.setattr(cli_mod, "evaluate", no_work)
    monkeypatch.setattr(cli_mod, "sweep", no_work)
    reduce = ["reduce", "--type", "A", "--n", "5", "--p", "1", "--q", "3"]
    custom = ["sweep", "--type", "A", "--n", "5", "--p", "1", "--q", "3", "--grid", "custom"]
    for argv in ([*reduce, "--z1=1e5000", "--z2=0"], [*custom, "--lo=1e100000000", "--hi=1"]):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
        assert "Traceback" not in captured.err
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_scalar("1e4300")
    largest = parse_scalar("1e4299")
    assert parse_scalar(str(largest)) == largest


def _no_sweep(setup, grid):
    raise AssertionError("the grid was swept")


def test_unprintable_custom_grid_points_exit_2_before_sweeping(capsys, monkeypatch):
    """Bounds and a step that each print can give points that do not: a
    point lo + k*step has denominator up to lcm(den(lo), den(step))."""
    import gvmred.cli as cli_mod

    monkeypatch.setattr(cli_mod, "sweep", _no_sweep)
    a, b = 10**2200 + 1, 10**2200 + 3
    argv = ["sweep", "--type", "A", "--n", "3", "--p", "1", "--q", "2", "--grid", "custom"]
    assert main([*argv, f"--lo=1/{a}", "--hi=1e-2199", f"--step=1/{b}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert f"more than {cli_mod.MAX_DIGITS} digits" in captured.err
    # the same bounds with a step that shares lo's denominator print
    monkeypatch.undo()
    assert main([*argv, f"--lo=1/{a}", f"--hi=3/{a}", f"--step=1/{a}"]) == 0
    assert f"3/{a}" in capsys.readouterr().out


def test_sweep_rejects_custom_grid_flags_without_custom_grid(capsys, monkeypatch):
    import gvmred.cli as cli_mod

    monkeypatch.setattr(cli_mod, "sweep", _no_sweep)
    for flag in ("--lo=1", "--hi=1", "--step=7", "--step=1/2"):
        argv = ["sweep", "--type", "A", "--n", "5", "--p", "1", "--q", "3", flag]
        assert main(argv) == 2, flag
        captured = capsys.readouterr()
        assert "need --grid custom" in captured.err and captured.out == ""
    monkeypatch.undo()
    # the custom grid still steps by 1/2 when --step is left out
    argv = ["sweep", "--type", "A", "--n", "5", "--p", "1", "--q", "3"]
    assert main([*argv, "--grid", "custom", "--lo=0", "--hi=1"]) == 0
    z1 = {line.split(",")[4] for line in capsys.readouterr().out.splitlines()[1:]}
    assert {"0", "1/2", "1"} <= z1 and "3/2" not in z1


def test_unwritable_out_exits_2_before_sweeping(tmp_path, capsys, monkeypatch):
    import gvmred.cli as cli_mod

    monkeypatch.setattr(cli_mod, "sweep", _no_sweep)
    out = tmp_path / "missing" / "x\ny.svg"  # the path is quoted, so one line
    setup = ["--type", "A", "--n", "5", "--p", "1", "--q", "3"]
    for argv in (["diagram", *setup, "--out", str(out)], ["sweep", *setup, "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {str(out)!r}: ")
        assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_verify_rejects_max_n_below_family_minimum(capsys, monkeypatch):
    import gvmred.cli as cli_mod

    def no_work(kind, n_max):
        raise AssertionError("verify ran")

    monkeypatch.setattr(cli_mod, "verify_family", no_work)
    for argv in (["--type", "A", "--max-n", "2"], ["--type", "A", "--max-n=-5"], ["--type", "D", "--max-n", "3"]):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert "--max-n must be at least" in captured.err
        assert captured.out == ""


def test_verify_above_family_cap_exits_2_before_any_setup(capsys, monkeypatch):
    import gvmred.harness as harness_mod

    def no_work(kind, n_max):
        raise AssertionError("a setup was built")

    monkeypatch.setattr(harness_mod, "family_setups", no_work)
    for kind in ("A", "D"):
        assert main(["verify", "--type", kind, "--max-n", str(10**9)]) == 2
        captured = capsys.readouterr()
        assert f"more than {harness_mod.MAX_FAMILY_POINTS} grid points" in captured.err
        assert captured.out == ""


def test_sweep_rejects_oversized_custom_grid(capsys, monkeypatch):
    from gvmred import GridSpec

    def never_list(self):
        raise AssertionError("the grid was listed")

    monkeypatch.setattr(GridSpec, "rationals", never_list)
    argv = ["sweep", "--type", "A", "--n", "5", "--p", "1", "--q", "3", "--grid", "custom"]
    # the second grid's point count has too many digits to print
    for bounds in (["--lo=-1000000", "--hi", "1000000"], ["--lo=0", "--hi=1", "--step=1e-4000"]):
        assert main([*argv, *bounds]) == 2
        captured = capsys.readouterr()
        assert "more than" in captured.err and captured.out == ""
        assert captured.err.endswith(" would hold more than 200000 points\n")


def test_rank_above_cap_exits_2_before_any_work(capsys, monkeypatch):
    import gvmred.cli as cli_mod
    import gvmred.verdict as verdict_mod

    def no_work(*args, **kwargs):
        raise AssertionError("a setup was built or evaluated")

    for owner in (cli_mod, verdict_mod):
        monkeypatch.setattr(owner, "gk_dimension", no_work)
    monkeypatch.setattr(cli_mod, "ParabolicSetup", no_work)
    too_large = str(cli_mod.MAX_RANK + 1)
    for command in ("gkdim", "reduce"):
        argv = [command, "--type", "A", "--n", too_large, "--p", "1", "--q", "2"]
        assert main([*argv, "--z1=0", "--z2=0"]) == 2
        captured = capsys.readouterr()
        assert f"--n must be at most {cli_mod.MAX_RANK}" in captured.err
        assert captured.out == ""
    monkeypatch.undo()
    argv = ["gkdim", "--type", "A", "--n", str(cli_mod.MAX_RANK), "--p", "1", "--q", "2"]
    assert main([*argv, "--z1=0", "--z2=0"]) == 0
    assert capsys.readouterr().out.startswith("gk=")


def _fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_leaves_process_pool_unloaded():
    code = "import sys, gvmred.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_import_adds_neither_dataclasses_nor_inspect():
    # measured against the bare interpreter's modules, since a site .pth
    # may already have loaded some
    code = (
        "import sys; bare = set(sys.modules); import gvmred, gvmred.cli; "
        "added = set(sys.modules) - bare; "
        "print('gvmred.cli' in added, sorted(added & {'dataclasses', 'inspect', 'json'}))"
    )
    assert _fresh_interpreter(code) == "True []"


def test_diagram_ascii(capsys):
    code = main(["diagram", "--type", "A", "--n", "5", "--p", "1", "--q", "3", "--ascii"])
    out = capsys.readouterr().out
    assert code == 0
    assert "R" in out


def test_diagram_svg_file(tmp_path):
    out = tmp_path / "plot.svg"
    code = main(
        ["diagram", "--type", "A", "--n", "5", "--p", "1", "--q", "3", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_out_file_is_replaced_only_once_the_output_exists(tmp_path, capsys, monkeypatch):
    """A ``diagram --out`` that exits 1 leaves an existing file as it was,
    and no file where there was none; one that succeeds, and a ``sweep
    --out``, replace it whole."""
    import gvmred.gk as gk_mod

    setup = ["--type", "A", "--n", "5", "--p", "1", "--q", "3"]
    out = tmp_path / "plot.svg"
    main(["diagram", *setup, "--out", str(out)])
    good = out.read_bytes()
    longer = good + b"<!-- kept -->\n" * 100
    out.write_bytes(longer)

    def broken(plan, exact):
        raise RuntimeError("miss failed")

    new = tmp_path / "new.svg"
    with monkeypatch.context() as patch:
        patch.setattr(gk_mod, "_gk_from_plan", broken)
        assert main(["diagram", *setup, "--out", str(out)]) == 1
        assert main(["diagram", *setup, "--out", str(new)]) == 1
    assert out.read_bytes() == longer
    assert not new.exists()
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["diagram", *setup, "--out", str(out)]) == 0
    assert out.read_bytes() == good
    out.write_bytes(longer)
    assert main(["sweep", *setup, "--out", str(out)]) == 0
    assert main(["sweep", *setup]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_diagram_needs_exactly_one_output(capsys):
    code = main(["diagram", "--type", "A", "--n", "5", "--p", "1", "--q", "3"])
    assert code == 2


def test_invalid_setup_exits_2(capsys):
    code = main(
        ["reduce", "--type", "D", "--n", "6", "--p", "1", "--q", "3", "--z1=0", "--z2=0"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["reduce", "--type", "A", "--n", "8"]) == 2
    assert main(["gkdim", "--type", "A", "--n", "8", "--p", "2", "--q", "5",
                 "--z1=bogus", "--z2=0"]) == 2


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    import gvmred.cli as cli_mod

    def broken(setup, z1, z2):
        raise KeyError("internal")

    monkeypatch.setattr(cli_mod, "gk_dimension", broken)
    with pytest.raises(KeyError):
        main(["gkdim", "--type", "A", "--n", "8", "--p", "2", "--q", "5",
              "--z1=-2", "--z2=-2"])


# The argv fuzz: commands, their flags in any order, good values (setups up
# to rank 8, conftest scalars, custom grids of at most 3 rationals per axis,
# so under 50 points, verify up to rank 5) and junk strings.
_JUNK = st.text(max_size=8)
# Integer flag values that int() would take but the grammar refuses, and
# leading zeros, which it takes.
_INTEGER_JUNK = st.sampled_from(("1_0", "\u0665", "+3", " 4", "5 ", "--1", "0x5", "1e1", "007"))
_SETUP_FLAGS = ("--type", "--n", "--p", "--q")
_COMMAND_FLAGS = {
    "gkdim": (*_SETUP_FLAGS, "--z1", "--z2"),
    "reduce": (*_SETUP_FLAGS, "--z1", "--z2", "--format"),
    "rs": ("--seq",),
    "sweep": (*_SETUP_FLAGS, "--grid", "--lo", "--hi", "--step", "--format"),
    "verify": ("--type", "--max-n"),
    "diagram": (*_SETUP_FLAGS, "--ascii"),
}
_SETUPS = [
    dict(zip(_SETUP_FLAGS, map(str, (s.lie.kind, s.n, s.p, s.q))))
    for kind in "AD"
    for s in family_setups(kind, 8)
]


@st.composite
def _argvs(draw):
    # one command, flag value or trailing argument in about 20 is junk (a
    # draw of 1, or of 3 for integer junk in an integer flag), and one flag
    # in 20 is left out (a draw of 2); hypothesis
    # favours the ends of a range, 0 and 19 here
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    if draw(st.integers(0, 19)) == 1:
        command = draw(_JUNK)
    good = {  # a string is the flag's value, True a bare flag, None no flag
        "--type": draw(st.sampled_from("AD")),
        "--n": str(draw(st.integers(-1, 8))),
        "--p": str(draw(st.integers(-1, 8))),
        "--q": str(draw(st.integers(-1, 8))),
        "--z1": str(draw(scalars)),
        "--z2": str(draw(scalars)),
        "--format": draw(st.sampled_from(("json", "csv" if command == "sweep" else "text"))),
        "--seq": ",".join(map(str, draw(st.lists(scalars, min_size=1, max_size=8)))),
        "--max-n": str(draw(st.integers(-1, 5))),
        "--ascii": True,
    }
    if draw(st.booleans()):
        good.update(draw(st.sampled_from(_SETUPS)))
    if draw(st.booleans()):
        step = draw(st.sampled_from(("1/2", "1", "3/2", "1/3", "0", "-1")))
        lo = Fraction(draw(st.integers(-6, 6)), 2)
        hi = lo + draw(st.integers(-1, 2)) * Fraction(step)
        good.update({"--grid": "custom", "--lo": str(lo), "--hi": str(hi), "--step": step})
    argv = [command]
    for flag in draw(st.permutations(_COMMAND_FLAGS.get(command, ()))):
        kind = draw(st.integers(0, 19))
        value = draw(_JUNK) if kind == 1 else None if kind == 2 else good.get(flag)
        if kind == 3 and flag in ("--n", "--p", "--q", "--max-n"):
            value = draw(_INTEGER_JUNK)
        if value is True:
            argv.append(flag)
        elif value is None:
            continue
        elif draw(st.integers(0, 3)) != 1:
            argv.append(f"{flag}={value}")
        else:  # a value starting with "-" then reads as a flag
            argv += [flag, value]
    if draw(st.integers(0, 19)) == 1:
        argv.append(draw(_JUNK))
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
def test_main_exits_0_or_refuses_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, err
    else:
        assert err == ""
