#!/usr/bin/env python3
"""gvmred benchmark: family verification, rendered sweeps and CLI queries.

    python3 perfbench/run.py --workload verify-A --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a source checkout: gvmred is imported from ``src/``
and is not installed.  Each workload runs whole rounds of the same
operations until ``--seconds`` have passed, checks every output against
the independent reference in ``reference.py`` or against a property the
method must have, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones plus
the tracing overhead.  Bytecode, outputs and spans go to ``.bench_build/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402
from tracing import Tracer, merge_summaries  # noqa: E402

WORKLOADS = ("verify-A", "verify-D", "sweep-render", "cli-queries")
FAMILIES = {"verify-A": ("A", 5), "verify-D": ("D", 6)}
# The paper's published configurations, each with its published lines
# z1 in Z>=a, z2 in Z>=b and z1+z2 in Z>=c.
RENDER_CONFIGS = {
    ("A", 10, 3, 6): (-2, -2, -5),
    ("A", 11, 3, 9): (-2, -1, -7),
    ("D", 6, 1, 5): (0, -2, -4),
    ("D", 7, 6, 7): (0, 0, -6),
}
OUTPUT_FORMATS = ("csv", "json", "svg", "ascii")
REFERENCE_SHARE = 16  # one point in this many is checked against the reference
QUERIES_PER_ROUND = 24
CLI_COVERAGE_QUERIES = 6
SETUP_REPEATS = 9
# Timings are scaled to a machine on which one calibration chunk takes its
# nominal time: reference.calibration_work for in-process work, a bare
# interpreter launch for CLI processes.  The chunks run between the timed
# operations and take CALIBRATION_SHARE of their time.
CALIBRATION_NOMINAL_S = 0.025
INTERPRETER_NOMINAL_S = 0.05
CALIBRATION_SHARE = 0.25
CHILD_TIMEOUT_S = 60
PROBE_MARKER = "--- probe ---\n"  # written by probe.py before its timings


# ---------------------------------------------------------------------------
# environment


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_gvmred():
    """Import gvmred from this checkout, writing bytecode under .bench_build."""
    if not (SRC / "gvmred" / "__init__.py").is_file():
        raise SystemExit(f"error: no gvmred sources under {SRC}")
    BUILD.mkdir(exist_ok=True)
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import gvmred
    import gvmred.cli  # noqa: F401

    if Path(gvmred.__file__).resolve().parent != (SRC / "gvmred").resolve():
        raise SystemExit(f"error: imported gvmred from {gvmred.__file__}, not {SRC}")
    return gvmred


@dataclass
class Child:
    code: int
    out: str
    err: str
    seconds: float
    max_rss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run one interpreter to completion; time it from launch to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode(), err.decode(), seconds, usage.ru_maxrss / 1024)


def calibrate() -> float:
    """Seconds one in-process calibration chunk takes now."""
    t0 = time.perf_counter()
    ref.calibration_work()
    return time.perf_counter() - t0


def launch_interpreter() -> float:
    """Seconds a bare interpreter takes from launch to exit now."""
    return run_child(["-c", "pass"]).seconds


def measure_setup(spec: dict) -> tuple[float, list[float]]:
    """Median over fresh interpreters of importing gvmred and building the
    workload's setups and grids, each scaled by calibration chunks run in
    the same interpreter right after; also the unscaled import times."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        child = run_child([str(HERE / "probe.py"), "setup", json.dumps(spec)])
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.err.strip()}")
        timing = json.loads(child.out)
        scale = CALIBRATION_NOMINAL_S / timing["cal_s"]
        totals.append((timing["import_s"] + timing["build_s"]) * scale)
        imports.append(timing["import_s"])
    return statistics.median(totals), imports


# ---------------------------------------------------------------------------
# run state


class NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, counter, amount=1):
        pass


NO_TRACE = NoTrace()


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    rng: random.Random
    calibrator: Callable[[], float] = calibrate
    nominal: float = CALIBRATION_NOMINAL_S
    tracer: Tracer = field(default_factory=Tracer)
    active: Tracer | None = None  # the tracer recording right now
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: int = 0
    # (round, traced, operation key, seconds) per timed operation
    samples: list = field(default_factory=list)
    op_points: dict = field(default_factory=dict)  # grid points per operation
    busy: dict = field(default_factory=dict)  # round -> seconds of timed operations
    chunks: dict = field(default_factory=dict)  # round -> calibration chunk seconds
    rounds_run: int = 0
    main_ms: list[float] = field(default_factory=list)
    child_summaries: list = field(default_factory=list)
    coverage: dict = field(default_factory=lambda: {"spans": {}, "counters": {}})

    @property
    def T(self):
        return self.active or NO_TRACE

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def traced(self, tracer: Tracer, fn, *args):
        """Run ``fn`` with ``tracer`` installed and recording."""
        tracer.install()
        self.active = tracer
        try:
            return fn(*args)
        finally:
            self.active = None
            tracer.uninstall()

    def record(self, key, seconds: float, points: int) -> None:
        """One timed operation (a setup's sweep, a rendered configuration,
        a query process); rounds repeat the same keys.  Calibration chunks
        follow until they make up their share of the round."""
        r = self.rounds_run
        self.samples.append((r, self.active is not None, key, seconds))
        self.op_points[key] = points
        self.busy[r] = self.busy.get(r, 0.0) + seconds
        chunks = self.chunks.setdefault(r, [])
        while sum(chunks) < CALIBRATION_SHARE * self.busy[r]:
            chunks.append(self.calibrator())

    def scale(self, r: int) -> float:
        """Round ``r``'s scale: the nominal calibration time over the mean
        of its chunks.  The machines this runs on share cores with other
        work that can slow everything by a half for minutes at a time, and
        the chunks slow with it."""
        return self.nominal / statistics.mean(self.chunks[r])

    def op_times(self, traced: bool = False) -> dict:
        """Median scaled seconds of each operation over the run's rounds."""
        scaled: dict = {}
        for r, was_traced, key, seconds in self.samples:
            if was_traced == traced:
                scaled.setdefault(key, []).append(seconds * self.scale(r))
        return {key: statistics.median(times) for key, times in scaled.items()}

    def rounds(self, round_fn) -> None:
        """Whole rounds until the time is up; in trace mode every second
        round is traced, and there is at least one of each."""
        start = time.perf_counter()
        while True:
            if self.trace and self.rounds_run % 2 == 1:
                self.traced(self.tracer, round_fn)
            else:
                round_fn()
            self.rounds_run += 1
            done = time.perf_counter() - start >= self.seconds
            if done and (not self.trace or self.rounds_run >= 2):
                return

    def note(self, text: str) -> None:
        """Report a failed operation on stderr (the first few only)."""
        self.notes += 1
        if self.notes <= 10:
            print(f"failed: {text}", file=sys.stderr)


# ---------------------------------------------------------------------------
# checks shared by the sweep workloads


def ref_key(z) -> tuple:
    symbols = dict(z.generic)
    if set(symbols) - {"tau", "sigma"}:
        return ("unexpected", str(z))
    return (z.rational, Fraction(symbols.get("tau", 0)), Fraction(symbols.get("sigma", 0)))


@dataclass
class SetupCase:
    """One setup with its grid and what the reference expects of it."""

    setup: object
    grid: object
    kind: str
    n: int
    p: int
    q: int
    dim_u: int
    points: frozenset
    sample: dict  # reference GK dimension at a seeded sample of points

    @property
    def label(self) -> str:
        return f"{self.kind}{self.n}({self.p},{self.q})"


def _build_grid(gvmred, setup):
    grid = gvmred.standard_grid(setup)
    return grid, grid.points()


def make_case(gvmred, run: Run, kind: str, n: int, p: int, q: int) -> SetupCase:
    setup = gvmred.ParabolicSetup(gvmred.LieType(kind, n), p, q)
    grid, listed = run.T.call("harness.grid", _build_grid, gvmred, setup)
    run.T.count("harness.grid_points", len(listed))
    points = ref.standard_grid(n)
    if len(points) != ref.grid_size(n):
        raise AssertionError("reference grid disagrees with its closed-form size")
    chosen = run.rng.sample(points, max(1, len(points) // REFERENCE_SHARE))
    return SetupCase(
        setup=setup,
        grid=grid,
        kind=kind,
        n=n,
        p=p,
        q=q,
        dim_u=ref.dim_u(kind, n, p, q),
        points=frozenset(points),
        sample={pt: ref.gk_dimension(kind, n, p, q, *pt) for pt in chosen},
    )


def check_rows(run: Run, case: SetupCase, report) -> None:
    """Count the grid's points as attempted.  A point fails when it has no
    row (the sweep recorded an error, say), when criterion and oracle
    disagree, or when the oracle disagrees with the reference or breaks
    gk <= dim u.  ``MismatchReport.ok`` is not consulted."""
    passed = set()
    for row in report.rows:
        key = (ref_key(row.z1), ref_key(row.z2))
        v = row.verdict
        if key not in case.points or key in passed:
            run.problem(f"{case.label}: unexpected or repeated row ({row.z1}, {row.z2})")
            continue
        expected = case.sample.get(key, v.gk)
        if (
            v.dim_u == case.dim_u
            and v.gk == expected
            and v.gk <= v.dim_u
            and v.reducible == (v.gk < v.dim_u)
            and v.criterion is v.reducible
            and v.agree is True
        ):
            passed.add(key)
        else:
            run.note(f"{case.label} at ({row.z1}, {row.z2}): {v}; reference gk {expected}")
    for z1, z2, error in report.errors:
        run.note(f"{case.label} at ({z1}, {z2}): {error}")
    run.attempted += len(case.points)
    run.failed += len(case.points) - len(passed)


def timed_sweep(gvmred, run: Run, case: SetupCase):
    t0 = time.perf_counter()
    report = run.T.call("harness.sweep", gvmred.sweep, case.setup, case.grid)
    elapsed = time.perf_counter() - t0
    run.T.count("harness.swept_points", len(report.rows))
    return report, elapsed


# ---------------------------------------------------------------------------
# verify-A, verify-D


def verify_workload(gvmred, run: Run, name: str) -> dict:
    """Criterion-vs-oracle verification of a whole family, swept setup by
    setup over standard grids as ``gvmred verify`` does."""
    kind, n_max = FAMILIES[name]
    setup_s, imports = measure_setup({"family": [kind, n_max]})

    def build():
        setups = gvmred.family_setups(kind, n_max)
        return [make_case(gvmred, run, kind, s.n, s.p, s.q) for s in setups]

    cases = run.traced(run.tracer, build) if run.trace else build()
    run.rng.shuffle(cases)

    def one_round():
        for case in cases:
            report, elapsed = timed_sweep(gvmred, run, case)
            run.record(case.label, elapsed, len(case.points))
            check_rows(run, case, report)

    run.rounds(one_round)
    if run.trace:
        smallest = min(cases, key=lambda c: len(c.points))
        coverage(gvmred, run, [(smallest.kind, smallest.n, smallest.p, smallest.q)], queries=True)
    return {"setup_s": setup_s, "imports": imports}


# ---------------------------------------------------------------------------
# sweep-render


def render_outputs(gvmred, report, T=NO_TRACE) -> dict[str, str]:
    return {
        "csv": T.call("harness.csv", gvmred.report_to_csv, report),
        "json": T.call("harness.json", gvmred.report_to_json, report),
        "svg": T.call("harness.svg", gvmred.render_diagram, report, "svg"),
        "ascii": T.call("harness.ascii", gvmred.render_diagram, report, "ascii"),
    }


def output_name(kind: str, n: int, p: int, q: int, fmt: str) -> str:
    return f"{kind}{n}_p{p}_q{q}.{'txt' if fmt == 'ascii' else fmt}"


def _legend_sets(text: str) -> tuple:
    """The three line sets of the ``lines:`` legend entry."""
    line = next(ln for ln in text.splitlines() if "lines: " in ln)
    sets = []
    for part in line[line.index("lines: ") :].split(";"):
        inner = part[part.index("{") + 1 : part.index("}")]
        sets.append({Fraction(v) for v in inner.split(", ") if v})
    return tuple(sets)


def check_outputs(run: Run, case: SetupCase, outputs: dict[str, str]) -> None:
    """CSV and JSON rows agree, their count is the grid size, the SVG
    parses with one circle per reducible rational row, and both legends
    carry exactly the paper's lines within the grid's range [-(n+2), 3]."""
    csv_rows = list(csv.DictReader(io.StringIO(outputs["csv"])))
    json_rows = json.loads(outputs["json"])["rows"]

    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None else str(value)

    if [{k: text(v) for k, v in r.items()} for r in json_rows] != csv_rows:
        run.problem(f"{case.label}: CSV and JSON rows differ")
    if len(csv_rows) != ref.grid_size(case.n):
        run.problem(f"{case.label}: {len(csv_rows)} rows, grid has {ref.grid_size(case.n)}")
    reducible_rational = sum(
        1
        for r in json_rows
        if r["reducible"] and not any(s in r["z1"] + r["z2"] for s in ("tau", "sigma"))
    )
    root = ET.fromstring(outputs["svg"])
    ns = root.tag[: -len("svg")]
    if len(root.findall(f"{ns}circle")) != reducible_rational:
        run.problem(f"{case.label}: SVG circles differ from {reducible_rational} reducible rows")
    lines = RENDER_CONFIGS.get((case.kind, case.n, case.p, case.q))
    if lines is None:
        return
    a, b, c = lines
    expected = (
        {Fraction(k) for k in range(a, 4)},
        {Fraction(k) for k in range(b, 4)},
        {Fraction(k) for k in range(c, 7)},
    )
    svg_legend = "\n".join(t.text or "" for t in root.iter(f"{ns}text"))
    for fmt, legend in (("svg", svg_legend), ("ascii", outputs["ascii"])):
        if _legend_sets(legend) != expected:
            run.problem(f"{case.label}: {fmt} legend lines differ from the paper's")


def render_round(gvmred, run: Run, cases, digests: dict) -> None:
    """Sweep each case, serialize it four ways and write the files, as
    ``gvmred sweep --out`` and ``gvmred diagram`` do.  The first output of
    each file is checked in full; later ones must be byte-identical."""
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        t0 = time.perf_counter()
        report, _ = timed_sweep(gvmred, run, case)
        outputs = render_outputs(gvmred, report, run.T)
        for fmt, body in outputs.items():
            path = out_dir / output_name(case.kind, case.n, case.p, case.q, fmt)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        run.record(case.label, time.perf_counter() - t0, len(case.points))
        run.T.count("harness.rendered_rows", len(report.rows))
        run.T.count("harness.renders")
        run.T.count("harness.output_bytes", sum(len(b.encode()) for b in outputs.values()))
        check_rows(run, case, report)
        first = False
        for fmt, body in outputs.items():
            name = output_name(case.kind, case.n, case.p, case.q, fmt)
            digest = hashlib.sha256(body.encode()).hexdigest()
            first = first or name not in digests
            if digests.setdefault(name, digest) != digest:
                run.problem(f"{name}: output changed between identical sweeps")
        if first:
            check_outputs(run, case, outputs)


def sweep_render_workload(gvmred, run: Run) -> dict:
    """Single-setup sweeps of the paper's configurations, each written as
    CSV, JSON, SVG and ASCII, with every row kept in memory."""
    setup_s, imports = measure_setup({"setups": [list(c) for c in RENDER_CONFIGS]})

    def build():
        return [make_case(gvmred, run, *config) for config in RENDER_CONFIGS]

    cases = run.traced(run.tracer, build) if run.trace else build()
    run.rng.shuffle(cases)
    digests: dict[str, str] = {}
    run.rounds(lambda: render_round(gvmred, run, cases, digests))
    for name in sorted(digests):
        print(f"sha256 {digests[name]}  {name}")
    if run.trace:
        coverage(gvmred, run, [], queries=True)
    return {"setup_s": setup_s, "imports": imports}


# ---------------------------------------------------------------------------
# cli-queries


@dataclass
class Query:
    argv: list[str]
    kind: str
    n: int
    p: int
    q: int
    gk: int
    dim_u: int


def _random_parameter(rng: random.Random, n: int) -> tuple:
    value = Fraction(rng.randint(-2 * (n + 2), 6), rng.choice((1, 2, 3)))
    roll = rng.random()
    if roll < 0.15:
        return ref.scalar(value, 1)
    if roll < 0.25:
        return ref.scalar(value, -1)
    if roll < 0.35:
        return ref.scalar(value, 0, 1)
    return ref.scalar(value)


def make_query(rng: random.Random) -> Query:
    """A one-point ``reduce`` or ``gkdim`` query on A n<=12 or D n<=10, with
    denominators 1, 2, 3, tau/sigma offsets and coupled pairs."""
    if rng.random() < 0.6:
        kind, n = "A", rng.randint(3, 12)
        p = rng.randint(1, n - 2)
        q = rng.randint(p + 1, n - 1)
    else:
        kind, n = "D", rng.randint(4, 10)
        p, q = rng.choice(((1, n - 1), (1, n), (n - 1, n)))
    if rng.random() < 0.2:
        a, b = (Fraction(rng.randint(-2 * (n + 2), 6), 2) for _ in range(2))
        z1, z2 = ref.scalar(a, 1), ref.scalar(b, -1)
    else:
        z1, z2 = _random_parameter(rng, n), _random_parameter(rng, n)
    command = rng.choice(("reduce", "gkdim"))
    argv = [command, "--type", kind, "--n", str(n), "--p", str(p), "--q", str(q)]
    argv += [f"--z1={ref.format_scalar(z1)}", f"--z2={ref.format_scalar(z2)}"]
    if command == "reduce":
        argv += ["--format", rng.choice(("text", "json"))]
    gk = ref.gk_dimension(kind, n, p, q, z1, z2)
    return Query(argv, kind, n, p, q, gk, ref.dim_u(kind, n, p, q))


def query_ok(query: Query, child: Child) -> bool:
    """Exit 0, and gk and dim_u equal to the reference's; ``reduce`` must
    also report that criterion and oracle agree."""
    if child.code != 0:
        return False
    out = child.out.strip()
    try:
        if out.startswith("{"):
            fields = {k: json.dumps(v) for k, v in json.loads(out).items()}
        else:
            fields = dict(part.split("=", 1) for part in out.split())
    except ValueError:
        return False
    if fields.get("gk") != str(query.gk) or fields.get("dim_u") != str(query.dim_u):
        return False
    return query.argv[0] == "gkdim" or fields.get("agree") == "true"


def run_query(query: Query, probe: bool, traced: bool = False) -> tuple[Child, dict | None]:
    """One query process, started when the previous one has exited.  The
    probe also reports the time of main(), and spans when ``traced``."""
    if not probe:
        return run_child(["-m", "gvmred", *query.argv]), None
    mode = ["query", "--trace"] if traced else ["query"]
    child = run_child([str(HERE / "probe.py"), *mode, *query.argv])
    child.err, _, report = child.err.partition(PROBE_MARKER)
    return child, json.loads(report) if report else None


def cli_workload(gvmred, run: Run) -> dict:
    """A closed loop with one client running one-point CLI processes,
    calibrated by bare interpreter launches."""
    run.calibrator, run.nominal = launch_interpreter, INTERPRETER_NOMINAL_S
    queries = [make_query(run.rng) for _ in range(QUERIES_PER_ROUND)]
    setups = sorted({(q.kind, q.n, q.p, q.q) for q in queries})
    setup_s, imports = measure_setup({"setups": setups, "grids": False})
    peak = [0.0]

    def one_round():
        traced = run.active is not None
        for i, query in enumerate(queries):
            child, timing = run_query(query, probe=run.trace, traced=traced)
            run.record(i, child.seconds, 1)
            run.attempted += 1
            if not query_ok(query, child):
                run.failed += 1
                run.note(f"gvmred {' '.join(query.argv)}: exit {child.code}: {child.out}{child.err}")
            if not traced:
                peak[0] = max(peak[0], child.max_rss_mb)
            if timing and "summary" in timing:
                run.child_summaries.append(timing["summary"])
            elif timing:
                run.main_ms.append(timing["main_ms"])

    run.rounds(one_round)
    if run.trace:
        coverage(gvmred, run, [min(setups, key=lambda s: (s[1], s[0]))], queries=False)
    return {"setup_s": setup_s, "imports": imports, "peak_rss_mb": peak[0]}


# ---------------------------------------------------------------------------
# per-layer coverage


def coverage(gvmred, run: Run, render_setups, queries: bool) -> None:
    """A traced pass over the layers this workload does not enter (sweep
    output, or the CLI), on small inputs, so that every per-layer metric is
    measured.  It counts toward neither attempted nor failed."""
    tracer = Tracer()
    before = (run.attempted, run.failed)

    def render():
        cases = [make_case(gvmred, run, *config) for config in render_setups]
        render_round(gvmred, run, cases, {})

    if render_setups:
        run.traced(tracer, render)
    summaries = [tracer.summary()]
    if queries:
        rng = random.Random(f"coverage/{run.seed}")
        for _ in range(CLI_COVERAGE_QUERIES):
            query = make_query(rng)
            for traced in (False, True):
                child, timing = run_query(query, probe=True, traced=traced)
                if not query_ok(query, child) or timing is None:
                    run.problem(f"coverage query gvmred {' '.join(query.argv)} failed")
                elif traced:
                    summaries.append(timing["summary"])
                else:
                    run.main_ms.append(timing["main_ms"])
    if run.failed != before[1]:
        run.problem("coverage sweep failed its checks")
    run.attempted, run.failed = before
    run.coverage = merge_summaries(summaries)


# ---------------------------------------------------------------------------
# metrics

PER_LAYER = (
    "rootdata.shifted_weight_us",
    "gk.integrality_classes_us",
    "gk.classes_per_point",
    "gk.gk_dimension_us",
    "tableaux.rs_shape_us",
    "tableaux.rs_calls_per_point",
    "tableaux.rs_entries_per_point",
    "exact.scalars_per_point",
    "exact.integer_tests_per_point",
    "verdict.evaluate_us",
    "verdict.criterion_us",
    "harness.grid_us_per_point",
    "harness.sweep_overhead_us",
    "harness.csv_us_per_row",
    "harness.json_us_per_row",
    "harness.svg_us_per_row",
    "harness.ascii_us_per_row",
    "harness.output_bytes",
    "cli.interpreter_ms",
    "cli.import_ms",
    "cli.main_ms",
    "cli.parse_scalar_us",
    "trace.overhead_pct",
)


def end_to_end(run: Run, extra: dict) -> dict:
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = run.op_times()
    points = sum(run.op_points[key] for key in ops)
    latencies = list(ops.values())
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
    return {
        "points_per_s": (points / sum(ops.values()), "1/s"),
        "query_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "query_ms_p95": (p95 * 1e3, "ms"),
        "setup_s": (extra["setup_s"], "s"),
        "peak_rss_mb": (extra.get("peak_rss_mb", own_peak), "MB"),
    }


def _layers_from(summary: dict) -> dict:
    """Per-layer metrics whose work appears in ``summary``."""
    spans, counters = summary["spans"], summary["counters"]
    found = {}

    def self_us(name, per):
        return spans.get(name, [0, 0.0])[1] / per * 1e6

    points = spans.get("gk.gk_dimension", [0])[0]
    if points:
        found.update(
            {
                "rootdata.shifted_weight_us": (self_us("rootdata.shifted_weight", points), "us"),
                "gk.integrality_classes_us": (self_us("gk.integrality_classes", points), "us"),
                "gk.classes_per_point": (counters.get("gk.classes", 0) / points, "count"),
                "gk.gk_dimension_us": (self_us("gk.gk_dimension", points), "us"),
                "tableaux.rs_shape_us": (self_us("tableaux.rs_shape", points), "us"),
                "tableaux.rs_calls_per_point": (
                    spans.get("tableaux.rs_shape", [0])[0] / points,
                    "count",
                ),
                "tableaux.rs_entries_per_point": (
                    counters.get("tableaux.rs_entries", 0) / points,
                    "count",
                ),
                "exact.scalars_per_point": (counters.get("exact.scalars@oracle", 0) / points, "count"),
                "exact.integer_tests_per_point": (
                    counters.get("exact.integer_tests@oracle", 0) / points,
                    "count",
                ),
            }
        )
    for name in ("verdict.evaluate", "verdict.criterion", "cli.parse_scalar"):
        if name in spans:
            found[name + "_us"] = (self_us(name, spans[name][0]), "us")
    if counters.get("harness.grid_points"):
        found["harness.grid_us_per_point"] = (
            self_us("harness.grid", counters["harness.grid_points"]),
            "us",
        )
    if counters.get("harness.swept_points"):
        found["harness.sweep_overhead_us"] = (
            self_us("harness.sweep", counters["harness.swept_points"]),
            "us",
        )
    if counters.get("harness.rendered_rows"):
        for fmt in OUTPUT_FORMATS:
            found[f"harness.{fmt}_us_per_row"] = (
                self_us(f"harness.{fmt}", counters["harness.rendered_rows"]),
                "us",
            )
        found["harness.output_bytes"] = (
            counters["harness.output_bytes"] / counters["harness.renders"],
            "bytes",
        )
    return found


def interpreter_ms() -> float:
    """Median launch-to-exit time of a bare interpreter: the floor under
    every CLI query, not the program's own cost."""
    return statistics.median(run_child(["-c", "pass"]).seconds for _ in range(SETUP_REPEATS)) * 1e3


def per_layer(run: Run, extra: dict) -> dict:
    """Layer metrics from the workload's own traced rounds, completed from
    the coverage pass for the layers the workload does not enter."""
    metrics = _layers_from(run.coverage)
    metrics.update(_layers_from(merge_summaries([run.tracer.summary(), *run.child_summaries])))
    metrics["cli.interpreter_ms"] = (interpreter_ms(), "ms")
    metrics["cli.import_ms"] = (statistics.median(extra["imports"]) * 1e3, "ms")
    metrics["cli.main_ms"] = (statistics.median(run.main_ms), "ms")
    untraced, traced = run.op_times(), run.op_times(traced=True)
    common = untraced.keys() & traced.keys()
    ratio = sum(traced[k] for k in common) / sum(untraced[k] for k in common)
    metrics["trace.overhead_pct"] = ((ratio - 1) * 100, "%")
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# entry point


def run_workload(gvmred, name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(seed=seed, seconds=seconds, trace=trace, rng=random.Random(f"{name}/{seed}"))
    if name in FAMILIES:
        extra = verify_workload(gvmred, run, name)
    elif name == "sweep-render":
        extra = sweep_render_workload(gvmred, run)
    else:
        extra = cli_workload(gvmred, run)
    if trace:
        metrics = per_layer(run, extra)
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        run.tracer.write_spans(spans_dir / f"{name}.tsv")
    else:
        metrics = end_to_end(run, extra)
    for problem in run.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(
        f"{name} seed={seed} trace={int(trace)}: {run.rounds_run} rounds, attempted={run.attempted} "
        f"failed={run.failed} correct={str(not run.problems).lower()}"
    )
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.4f} {unit}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory;
    the last line combines their results under ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    gvmred = import_gvmred()
    ref.self_check()
    calibrate()  # first call builds the calibration points
    result = run_workload(gvmred, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
