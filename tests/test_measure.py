import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_measure_script_compares_two_trees():
    """``tests/measure.py`` on A<=5 and D<=6 with one pair, the
    tree given as both sides: one wall per side and family with the verify
    line and its SHA-256, equal on both sides, the misses split by class
    kind, the labeled classes of three blocks met in type D only, and the
    four in-process stages, the sweeps covering the verify line's points
    with no error or mismatch."""
    argv = [sys.executable, str(TESTS / "measure.py"), "--src", str(SRC), "--src", str(SRC)]
    argv += ["--family", "A:5", "--family", "D:6", "--pairs", "1", "--repeat", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert set(result["sources"]) == {"parent", "change"}
    lines = {
        "A<=5": "verified 10 setups, 9516 points: no mismatches, no errors",
        "D<=6": "verified 9 setups, 9381 points: no mismatches, no errors",
    }
    points = {"A<=5": 9516, "D<=6": 9381}
    assert set(result["gvmred_verify_walls"]) == set(result["per_miss"]) == set(lines)
    assert set(result["stages"]) == set(lines) and "stages" in result["how"]
    for family, line in lines.items():
        walls = result["gvmred_verify_walls"][family]
        assert len(walls["parent_s"]) == len(walls["change_s"]) == 1
        assert walls["stdout"] == {"parent": line, "change": line}
        assert len(set(walls["stdout_sha256"].values())) == 1
        for side in ("parent", "change"):
            misses = result["per_miss"][family][side]
            assert misses["entry"] == "gk._gk_from_plan" and misses["verify_ok"] is True
            six, other = misses["labeled class of three blocks"], misses["other"]
            assert six["misses"] + other["misses"] == misses["misses"] > 0
            assert (six["misses"] > 0) == (family == "D<=6") and other["us"] > 0
            stages = result["stages"][family][side]
            assert all(stages[f"{stage}_s"] > 0 for stage in ("grids", "decode", "cells", "sweeps"))
            assert (stages["points"], stages["errors"], stages["mismatches"]) == (points[family], 0, 0)
