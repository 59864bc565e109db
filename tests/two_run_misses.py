"""Greene's closed form against insertion, on every two-run class of every
GK miss of the largest verify families.

Runs ``verify_family`` on type A up to rank 14 and type D up to rank 43
with each memo miss (``gk._gk_from_values``) recorded.  At every miss it
expands each class of the miss's class plan to its integer keys and checks:

* for a class of two runs, ``tableaux.two_run_columns`` on the runs' top
  difference (halved in a labeled class) gives the column lengths
  ``tableaux.key_columns`` gives on the keys;
* the miss's GK dimension is the plan's base less the depth sums of the
  ``key_columns`` of every class (even boxes only in a labeled class).

Exits 1 at the first disagreement, and when a family meets no two-run
class or fails its verification.  Pytest does not collect it (no
``test_`` prefix); run it as

    PYTHONPATH=src python tests/two_run_misses.py
"""

from __future__ import annotations

import sys
from collections import Counter

from gvmred import gk, verify_family
from gvmred.tableaux import key_columns, two_run_columns

from references import columns_depth_sum, columns_even_depth_sum, plan_parts

FAMILIES = (("A", 14), ("D", 43))


def check_miss(setup, exact, gk_value, seen: Counter) -> str | None:
    """What disagrees at one miss, or None."""
    pattern = tuple([None if v is None else 0 for v in exact])
    base, classes = setup.class_plans[pattern]
    values = (0, *exact, *[None if v is None else -v for v in reversed(exact)])
    reference = base
    for labeled, parts in classes:
        keys = [values[i] + t for i, terms in plan_parts(labeled, parts) for t in terms]
        columns = key_columns(keys)
        reference -= columns_even_depth_sum(columns) if labeled else columns_depth_sum(columns)
        if len(parts) == 2:
            (i, s, p), (j, t, q) = parts
            d = values[i] + s - values[j] - t
            closed = tuple(c for c in two_run_columns(d // 2 if labeled else d, p, q) if c)
            if closed != columns:
                return f"two runs {parts} at {exact}: closed form {closed}, insertion {columns}"
            seen[labeled] += 1
    if reference != gk_value:
        return f"GK {gk_value} at {exact}, expanded keys give {reference}"
    return None


def main() -> int:
    misses = []
    miss = gk._gk_from_values

    def recorded(setup, exact):
        value = miss(setup, exact)
        misses.append((setup, exact, value))
        return value

    status = 0
    gk._gk_from_values = recorded
    try:
        for kind, n_max in FAMILIES:
            misses.clear()
            report = verify_family(kind, n_max)
            seen: Counter = Counter()
            for setup, exact, value in misses:
                problem = check_miss(setup, exact, value, seen)
                if problem is not None:
                    print(f"{kind}<={n_max} {setup}: {problem}")
                    return 1
            print(
                f"{kind}<={n_max}: {len(misses)} misses, two-run classes "
                f"{seen[False]} unlabeled and {seen[True]} labeled agree; verify ok={report.ok}"
            )
            if not report.ok or not sum(seen.values()):
                status = 1
    finally:
        gk._gk_from_values = miss
    return status


if __name__ == "__main__":
    sys.exit(main())
