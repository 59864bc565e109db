"""Compare two source trees of gvmred: `gvmred verify` walls and GK miss cost.

For each family (``--family A:14 --family D:43``, the default), prints one
JSON object with:

* ``gvmred_verify_walls``: the wall time of ``python -m gvmred verify``,
  interpreter start included, in fresh processes, ``--pairs`` pairs per
  family alternating which tree runs first, with each tree's stdout line
  and its SHA-256;
* ``per_miss``: every GK memo miss of one ``verify_family`` run recorded,
  then all of them timed again, best of ``--repeat`` loops, in µs per miss,
  split by class kind: the misses whose block split has a labeled class
  of three blocks (so(2n) (1, n - 1)'s six-run class) apart from all
  others;
* ``stages``: the family's verification split into four in-process
  stages, best of ``--repeat`` rounds, in seconds: building the rank grids
  with their point lists, decoding their points, building the cell tables
  the sweeps read, and sweeping every setup over its rank's grid.  They
  run in the misses' process once its patches are undone; each round
  builds fresh grids and patches nothing, and the setups, so their class
  plans, are built once.  Each tree's tables are built through its own
  entry point: ``form_cells(forms, setup.cell_windows)`` where setups
  have rank-wide cell windows, else ``form_cells(forms,
  setup.gk_key.windows)`` where ``form_cells`` takes windows, else
  ``form_cells(forms)``.  Whatever ``sweep`` builds lazily beyond
  ``form_cells`` is timed with the sweeps.  With the stages come the
  family's cell counts, summed over its setups: ``exact`` cells
  (distinct tuples of exact form values) and ``coarse`` ones (distinct
  once clamped at the windows the tables are built at, so at the
  setup's windows the family's misses; None for a tree that does not
  coarsen);
* ``profile``: the ten functions of most own time (cProfile's tottime)
  in one ``verify_family`` run per tree, profiled first thing in the
  first pair's timing process, so on a cold start, as
  ``file:line(function)`` with its calls and own and cumulative seconds.

The misses' and stages' process runs ``--pairs`` times per tree too,
alternating which tree goes first, so drift of the host between
processes falls on both trees alike; each of their timings is printed
as its per-run list (``runs``) with the median, and every count as the
runs' common value.

The two trees are ``--src PARENT --src CHANGE``, each a ``src`` directory
put on ``PYTHONPATH``; a tree whose miss entry point is
``gk._gk_from_values(setup, exact)`` (before the class plan was looked up
per cell pattern) is timed through that, a newer one through
``gk._gk_from_plan(plan, exact)``.  Stdlib only; pytest does not collect
it (no ``test_`` prefix).  Run it as

    python tests/measure.py --src ../parent/src --src src --pairs 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")

# Run first in the timing process; argv: kind, n_max, repeat, profile (0 or
# 1).  With profile 1, one verify_family run under cProfile and its ten
# functions of most own time, as one JSON line.
PROFILE = r"""
import cProfile, json, os, pstats, sys
from gvmred import harness

if sys.argv[4] == "1":
    profiler = cProfile.Profile()
    profiler.runcall(harness.verify_family, sys.argv[1], int(sys.argv[2]))
    stats = pstats.Stats(profiler).stats
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:10]
    print(json.dumps([
        {
            "function": name if path == "~" else f"{os.path.basename(path)}:{line}({name})",
            "ncalls": calls,
            "tottime_s": round(own, 4),
            "cumtime_s": round(cumulative, 4),
        }
        for (path, line, name), (_, calls, own, cumulative, _) in top
    ]))
"""

# Run after PROFILE, in its process; argv: kind, n_max, repeat.
MISSES = r"""
import json, sys, time
from gvmred import gk, harness, verify_family

kind, n_max, repeat = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
name = "_gk_from_plan" if hasattr(gk, "_gk_from_plan") else "_gk_from_values"
miss, standard_grid = getattr(gk, name), harness.standard_grid
misses, current = [], []

def recorded_grid(setup):  # verify_family asks it once per setup, before its misses
    current[:] = [setup]
    return standard_grid(setup)

def recorded(*args):
    misses.append((current[0], args))
    return miss(*args)

setattr(gk, name, recorded)
harness.standard_grid = recorded_grid
try:
    ok = verify_family(kind, n_max).ok
finally:
    setattr(gk, name, miss)
    harness.standard_grid = standard_grid

def six_run(setup, exact):
    pattern = tuple(None if v is None else 0 for v in exact)
    difference, total = gk.key_readers(setup, pattern)
    split = gk.split_classes(len(setup.block_plan.rho_runs), difference, total)
    return total is not None and any(
        len(members) == 3 and total(members[0][0], members[0][0]) is not None
        for members in split
    )

groups = {"labeled class of three blocks": [], "other": []}
for setup, args in misses:
    six = six_run(setup, args[-1])
    groups["labeled class of three blocks" if six else "other"].append(args)
result = {"entry": "gk." + name, "verify_ok": ok, "misses": len(misses)}
for label, group in groups.items():
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        for args in group:
            miss(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    result[label] = {
        "misses": len(group),
        "us": round(best / len(group) * 1e6, 3) if group else None,
    }
print(json.dumps(result))
"""


# Run after MISSES, in its process; argv: kind, n_max, repeat.
STAGES = r"""
import inspect, json, sys, time
from gvmred import harness

kind, n_max, repeat = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
setups = harness.family_setups(kind, n_max)
ranks = sorted({setup.n for setup in setups})
rank_windows = hasattr(harness.ParabolicSetup, "cell_windows")
coarsened = "windows" in inspect.signature(harness.ParameterGrid.form_cells).parameters

def table_args(setup):  # the arguments of the form_cells call the setup's sweep makes
    forms, windows = setup.gk_key.forms, setup.gk_key.windows
    if rank_windows:
        return forms, setup.cell_windows
    return (forms, windows) if coarsened else (forms,)

tables = {n: list(dict.fromkeys(table_args(s) for s in setups if s.n == n)) for n in ranks}

def grids():
    built = {n: harness.grid_from_spec(harness._standard_spec(n)) for n in ranks}
    for grid in built.values():
        grid.points()
    return built

def decode(built):
    for grid in built.values():
        grid._decoded

def cells(built):
    for n, grid in built.items():
        for args in tables[n]:
            grid.form_cells(*args)

def sweeps(built):
    counts = {"points": 0, "errors": 0, "mismatches": 0}
    for setup in setups:
        report = harness.sweep(setup, built[setup.n])
        counts["points"] += len(report.rows) + len(report.errors)
        counts["errors"] += len(report.errors)
        counts["mismatches"] += sum(1 for row in report.rows if not row.verdict.agree)
    return counts

best = dict.fromkeys(("grids_s", "decode_s", "cells_s", "sweeps_s"), float("inf"))
for _ in range(repeat):
    marks = [time.perf_counter()]
    built = grids()
    marks.append(time.perf_counter())
    decode(built)
    marks.append(time.perf_counter())
    cells(built)
    marks.append(time.perf_counter())
    counts = sweeps(built)
    marks.append(time.perf_counter())
    for name, start, end in zip(best, marks, marks[1:]):
        best[name] = min(best[name], end - start)
result = {name: round(elapsed, 4) for name, elapsed in best.items()}
result.update(counts)
exact_cells = coarse_cells = 0
for setup in setups:
    table = built[setup.n].form_cells(*table_args(setup))
    exact_cells += len(table[1])
    coarse_cells += len(table[4][-1]) if coarsened else 0  # the coarse cells' first cells
result["cells"] = {"exact": exact_cells, "coarse": coarse_cells if coarsened else None}
print(json.dumps(result))
"""


def _env(src: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.abspath(src)}


def verify_wall(src: str, kind: str, n_max: int) -> tuple[float, str]:
    """Wall seconds and stdout of one fresh ``gvmred verify`` process."""
    argv = [sys.executable, "-m", "gvmred", "verify", "--type", kind, "--max-n", str(n_max)]
    start = time.perf_counter()
    done = subprocess.run(argv, env=_env(src), capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"error: {' '.join(argv)} with {src} exited {done.returncode}")
    return elapsed, done.stdout


def timed(src: str, kind: str, n_max: int, repeat: int, profile: bool) -> tuple[dict, dict, list]:
    """The JSON lines of ``MISSES`` and ``STAGES``, and of ``PROFILE`` when
    ``profile`` (else None), run in one fresh process with ``src`` on
    PYTHONPATH."""
    script = PROFILE + MISSES + STAGES
    argv = [sys.executable, "-c", script, kind, str(n_max), str(repeat), str(int(profile))]
    done = subprocess.run(argv, env=_env(src), capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: timing {kind}<={n_max} with {src}: {done.stderr.strip()}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    top = lines.pop(0) if profile else None
    miss, stage = lines
    return miss, stage, top


def merged(runs: list[dict]) -> dict:
    """One tree's runs of the timing process as one dict: each timing (a
    float) as its per-run list with their median, every other field the
    value all runs agree on."""
    result = {}
    for key, value in runs[0].items():
        values = [run[key] for run in runs]
        if isinstance(value, dict):
            result[key] = merged(values)
        elif isinstance(value, float):
            result[key] = {"runs": values, "median": round(statistics.median(values), 4)}
        elif values.count(value) < len(values):
            raise SystemExit(f"error: {key} differs between runs: {values}")
        else:
            result[key] = value
    return result


def family(text: str) -> tuple[str, int]:
    kind, _, n = text.partition(":")
    if kind not in ("A", "D") or not n.isdigit():
        raise argparse.ArgumentTypeError(f"expected A:N or D:N, got {text!r}")
    return kind, int(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", action="append", required=True, help="a src tree; give two")
    parser.add_argument("--family", action="append", type=family, help="K:N, e.g. D:43")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs of runs")
    parser.add_argument("--repeat", type=int, default=5, help="timing loops per miss kind")
    args = parser.parse_args(argv)
    if len(args.src) != 2 or args.pairs < 1 or args.repeat < 1:
        parser.error("give --src twice, and --pairs and --repeat of at least 1")
    families = args.family or [("A", 14), ("D", 43)]
    sources = dict(zip(SIDES, args.src))
    walls, misses, stages, profiles = {}, {}, {}, {}
    for kind, n_max in families:
        name = f"{kind}<={n_max}"
        times = {side: [] for side in SIDES}
        stdout = {}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                elapsed, out = verify_wall(sources[side], kind, n_max)
                times[side].append(round(elapsed, 3))
                stdout.setdefault(side, out)
        walls[name] = {
            **{f"{side}_s": times[side] for side in SIDES},
            "stdout": {side: out.strip() for side, out in stdout.items()},
            "stdout_sha256": {
                side: hashlib.sha256(out.encode()).hexdigest() for side, out in stdout.items()
            },
        }
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                runs[side].append(timed(sources[side], kind, n_max, args.repeat, pair == 0))
        for side in SIDES:
            misses.setdefault(name, {})[side] = merged([miss for miss, _, _ in runs[side]])
            stages.setdefault(name, {})[side] = merged([stage for _, stage, _ in runs[side]])
            profiles.setdefault(name, {})[side] = runs[side][0][2]
    how = {
        "walls": "python -m gvmred verify --type K --max-n N, fresh processes, wall time "
        "including interpreter start, pairs alternating which tree runs first",
        "per_miss": "every GK miss of one verify_family run recorded, then all timed again, "
        "best of the repeat loops, us per miss, by whether the miss's block split has a "
        "labeled class of three blocks; one fresh process per run, pairs alternating which "
        "tree runs first, each timing's runs listed with their median",
        "stages": "in-process seconds, best of the repeat rounds, each round on fresh rank "
        "grids: grid_from_spec with the point list, decode, form_cells per table the sweeps "
        "read (per form set and the windows the tree's sweeps clamp at, if any), and every "
        "setup's sweep; in the per_miss processes, runs listed with their median; cells: exact "
        "and coarse cells summed over the family's setups",
        "profile": "one verify_family run under cProfile, first in the first pair's "
        "per_miss process: the ten functions of most own time (tottime), descending",
    }
    result = {
        "sources": sources,
        "python": sys.version.split()[0],
        "pairs": args.pairs,
        "repeat": args.repeat,
        "how": how,
        "gvmred_verify_walls": walls,
        "per_miss": misses,
        "stages": stages,
        "profile": profiles,
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
