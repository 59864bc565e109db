import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_measure_script_compares_two_trees():
    """``tests/measure.py`` on A<=5 and D<=6 with two pairs, the
    tree given as both sides: two walls per side and family with the verify
    line and its SHA-256, equal on both sides, the misses split by class
    kind, the labeled classes of three blocks met in type D only, and the
    four in-process stages, the sweeps covering the verify line's points
    with no error or mismatch, and the family's exact and coarse cells
    summed over its setups; each timing of the misses and stages as its
    two runs, one per pair, with their median; and per tree and family the
    ten functions of most own time in one profiled ``verify_family``,
    a ``harness`` function among them, descending."""
    argv = [sys.executable, str(TESTS / "measure.py"), "--src", str(SRC), "--src", str(SRC)]
    argv += ["--family", "A:5", "--family", "D:6", "--pairs", "2", "--repeat", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert set(result["sources"]) == {"parent", "change"}
    lines = {
        "A<=5": "verified 10 setups, 9516 points: no mismatches, no errors",
        "D<=6": "verified 9 setups, 9381 points: no mismatches, no errors",
    }
    points = {"A<=5": 9516, "D<=6": 9381}
    cells = {"A<=5": {"exact": 1527, "coarse": 374}, "D<=6": {"exact": 2466, "coarse": 1052}}
    assert set(result["gvmred_verify_walls"]) == set(result["per_miss"]) == set(lines)
    assert set(result["stages"]) == set(lines) and "stages" in result["how"]
    assert set(result["profile"]) == set(lines) and "profile" in result["how"]
    for family, line in lines.items():
        walls = result["gvmred_verify_walls"][family]
        assert len(walls["parent_s"]) == len(walls["change_s"]) == 2
        assert walls["stdout"] == {"parent": line, "change": line}
        assert len(set(walls["stdout_sha256"].values())) == 1
        for side in ("parent", "change"):
            misses = result["per_miss"][family][side]
            assert misses["entry"] == "gk._gk_from_plan" and misses["verify_ok"] is True
            six, other = misses["labeled class of three blocks"], misses["other"]
            assert six["misses"] + other["misses"] == misses["misses"] > 0
            assert (six["misses"] > 0) == (family == "D<=6")
            stages = result["stages"][family][side]
            timings = [stages[f"{stage}_s"] for stage in ("grids", "decode", "cells", "sweeps")]
            timings += [other["us"]] + ([six["us"]] if six["misses"] else [])
            for timing in timings:
                assert len(timing["runs"]) == 2 and all(run > 0 for run in timing["runs"])
                assert timing["median"] == round(sum(timing["runs"]) / 2, 4)
            if not six["misses"]:
                assert six["us"] is None
            assert (stages["points"], stages["errors"], stages["mismatches"]) == (points[family], 0, 0)
            assert stages["cells"] == cells[family]
            top = result["profile"][family][side]
            names = [line["function"] for line in top]
            assert len(top) == 10 and any(name.startswith("harness.py:") for name in names)
            for line in top:
                assert line["ncalls"] > 0 and line["cumtime_s"] >= line["tottime_s"]
            own = [line["tottime_s"] for line in top]
            assert own == sorted(own, reverse=True)
