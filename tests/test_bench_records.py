"""The committed benchmark records check themselves, from ``BENCH_35.json``
on, the first in which every gated pair run is stored.

Per workload and end-to-end metric a record lists the ``parent`` and
``change`` runs, pair i being the i-th of each, with their medians, IQRs,
the median change in percent and, where recorded, the pairs the change
won.  Each is recomputed here from the runs.  The IQR is the spread
between ``statistics.quantiles``' first and third quartiles; a record
names the quartile method it used in ``iqr_method``, and the records
written before that field are pinned below.  Every claim the record
marks "met" must follow from its runs: at least 10 pairs, at least 9 of
them won, and a median gain larger than the parent's IQR.  The medians a
record quotes from ``tests/measure.py`` (``runs`` with ``median``) are
recomputed too.  Older records keep other shapes: they are listed by
name as unchecked, and not read.
"""

import copy
import json
import math
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIRST_CHECKED = 35
# the records before ``FIRST_CHECKED``, whose shapes no script can recompute
UNCHECKED = {21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 33, 34}
# the quartile method of each record written before ``iqr_method``
OLD_IQR_METHODS = {35: "exclusive", 36: "inclusive", 37: "inclusive"}
BETTER = {
    metric["name"]: metric["better"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
CLAIM = re.compile(r"(\S+) (\w+): met\b")


def _numbers() -> list[int]:
    names = (re.fullmatch(r"BENCH_(\d+)\.json", path.name) for path in ROOT.glob("BENCH_*.json"))
    return sorted(int(name.group(1)) for name in names if name)


RECORDS = [
    (number, json.loads((ROOT / f"BENCH_{number}.json").read_text()))
    for number in _numbers()
    if number >= FIRST_CHECKED
]


def _close(recorded: float, computed: float) -> bool:
    """Equal up to the six decimals a record keeps: a statistic of runs
    rounded to six decimals, itself rounded, may be a few units of the
    sixth decimal off the one the record computed before rounding."""
    return math.isclose(recorded, computed, rel_tol=1e-9, abs_tol=3e-6)


def _iqr(runs: list[float], method: str) -> float:
    first, _, third = statistics.quantiles(runs, n=4, method=method)
    return third - first


def _wins(name: str, parent: list[float], change: list[float]) -> int:
    """The pairs in which the change's run is better than the parent's."""
    if BETTER[name] == "lower":
        parent, change = change, parent
    return sum(c > p for p, c in zip(parent, change))


def _medians_quoted(node, where: str):
    """Every (where, runs, median) of a ``tests/measure.py`` quote."""
    if isinstance(node, dict):
        if "runs" in node and "median" in node:
            yield where, node["runs"], node["median"]
        for key, value in node.items():
            yield from _medians_quoted(value, f"{where}/{key}")


def problems(number: int, record: dict) -> list[str]:
    """What in ``record`` does not follow from its own runs."""
    found = []
    method = record.get("iqr_method", OLD_IQR_METHODS.get(number))
    if method not in ("exclusive", "inclusive"):
        return [f"no quartile method: {method!r}"]
    for workload, metrics in record["gated_workloads"].items():
        for name, entry in metrics.items():
            if name not in BETTER:
                continue
            where = f"{workload} {name}"
            parent, change = entry["parent"], entry["change"]
            if len(parent) != len(change):
                found.append(f"{where}: {len(parent)} parent runs, {len(change)} change runs")
                continue
            medians = statistics.median(parent), statistics.median(change)
            for side, median in zip(("parent", "change"), medians):
                if not _close(entry[f"{side}_median"], median):
                    found.append(f"{where}: {side}_median is not the runs' median {median}")
            for side, runs in (("parent", parent), ("change", change)):
                if not _close(entry[f"{side}_iqr"], _iqr(runs, method)):
                    found.append(f"{where}: {side}_iqr is not the runs' {method} IQR")
            pct = round((medians[1] / medians[0] - 1) * 100, 1)
            if entry["median_change_pct"] != pct:
                found.append(f"{where}: median_change_pct is not {pct}")
            wins = _wins(name, parent, change)
            if "change_wins" in entry and entry["change_wins"] != f"{wins}/{len(parent)}":
                found.append(f"{where}: change_wins is not {wins}/{len(parent)}")
    for workload, name in CLAIM.findall(record["claim"]):
        entry = record["gated_workloads"][workload][name]
        parent, change = entry["parent"], entry["change"]
        wins = _wins(name, parent, change)
        gain = statistics.median(change) - statistics.median(parent)
        if BETTER[name] == "lower":
            gain = -gain
        if len(parent) < 10 or wins < 9 or not gain > _iqr(parent, method):
            found.append(
                f"claim {workload} {name}: {wins}/{len(parent)} pairs won, median gain {gain} "
                f"against a parent IQR of {_iqr(parent, method)}"
            )
    for where, runs, median in _medians_quoted(record.get("measure_py", {}), "measure_py"):
        if median != round(statistics.median(runs), 4):
            found.append(f"{where}: median is not the runs' median")
    return found


def test_the_checked_records_name_their_quartile_method():
    """The records from ``BENCH_35.json`` on are read, this one included,
    and every earlier one is listed as unchecked; those written before
    ``iqr_method`` are pinned, and every later one names its method."""
    numbers = [number for number, _ in RECORDS]
    assert numbers[:3] == [35, 36, 37] and 38 in numbers
    assert set(_numbers()) - set(numbers) == UNCHECKED
    for number, record in RECORDS:
        assert ("iqr_method" in record) != (number in OLD_IQR_METHODS), number
        assert record.get("iqr_method", OLD_IQR_METHODS.get(number)) in ("exclusive", "inclusive")


@pytest.mark.parametrize("number, record", RECORDS, ids=[f"BENCH_{n}" for n, _ in RECORDS])
def test_every_record_follows_from_its_runs(number, record):
    assert problems(number, record) == []


def test_a_record_with_one_run_edited_fails():
    """``BENCH_35.json`` with the change's first verify-A points_per_s run
    moved below the parent's: the recorded wins no longer follow, nor
    does its claim once two more runs move and the wins drop below 9 of
    10; with the other quartile method its IQRs no longer follow."""
    record = dict(RECORDS)[35]
    assert CLAIM.findall(record["claim"]) == [("verify-A", "points_per_s")]
    edited = copy.deepcopy(record)
    entry = edited["gated_workloads"]["verify-A"]["points_per_s"]
    entry["change"][0] = entry["parent"][0] - 1
    assert any("change_wins" in problem for problem in problems(35, edited))
    for i in (1, 2):
        entry["change"][i] = entry["parent"][i] - 1
    assert any(problem.startswith("claim verify-A points_per_s") for problem in problems(35, edited))
    edited = copy.deepcopy(record)
    edited["iqr_method"] = "inclusive"
    assert any("parent_iqr" in problem for problem in problems(35, edited))
