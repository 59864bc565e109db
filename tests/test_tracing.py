"""The benchmark (``perfbench/``) reads gvmred by name: the traced runs
wrap functions by the names ``perfbench/tracing.py`` looks them up under,
and the runs read public names off the package, so a renamed, deleted or
no longer exported one shows here."""

import ast
import sys
from pathlib import Path

import gvmred
from gvmred import LieType, ParabolicSetup, cli, exact, gk, harness, standard_grid, tableaux, verdict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(gvmred.__file__).resolve().parent


def test_the_benchmarks_public_names_are_exported():
    """Every public ``gvmred.<name>`` that ``perfbench/run.py``,
    ``probe.py`` and ``digests.py`` read, or import from ``gvmred``, is in
    ``gvmred.__all__``, or is a submodule they import as such
    (``import gvmred.cli``); ``__all__`` holds at most 33 names."""
    assert len(gvmred.__all__) <= 33
    read = set()
    for script in ("run.py", "probe.py", "digests.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gvmred":
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "gvmred":
                read.update(alias.name for alias in node.names)
    public = {name for name in read if not name.startswith("_")}
    assert {"sweep", "standard_grid", "family_setups", "ParabolicSetup"} <= public
    missing = {
        name for name in public if name not in gvmred.__all__ and not (PACKAGE / f"{name}.py").is_file()
    }
    assert not missing


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
