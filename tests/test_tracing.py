"""The traced benchmark (``perfbench/tracing.py``) wraps gvmred functions
by the names it looks them up under; its untraced runs never do, so a
renamed or deleted one shows only here."""

import sys
from pathlib import Path

from gvmred import LieType, ParabolicSetup, cli, exact, gk, harness, standard_grid, tableaux, verdict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_records_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import tracing

    owners = (cli, exact.ExactScalar, gk, harness, tableaux, verdict)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup = ParabolicSetup(LieType("A", 4), 1, 2)
        grid = standard_grid(setup)
        report = harness.sweep(setup, grid)
        verdict_at_point = harness.evaluate(setup, -1, -2)  # a one-point query
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
    assert not report.errors and len(report.rows) == len(grid)
    assert verdict_at_point == verdict.evaluate(setup, -1, -2)
    # the sweep decides by columns; only the one-point query enters the
    # wrapped per-point calls
    spans = tracer.summary()["spans"]
    assert spans["verdict.evaluate"][0] == spans["verdict.criterion"][0] == 1
    assert spans["gk.gk_dimension"][0] == 1
