"""The closed forms against insertion, on every class kind they cover, at
every GK miss of the largest verify families.

Runs ``verify_family`` on type A up to rank 14 and type D up to rank 43
with each memo miss (``gk._gk_from_values``) recorded.  At every miss it
expands each class of the miss's class plan to its integer keys and checks:

* each class a miss reads in closed form has the column lengths
  ``tableaux.key_columns`` gives on its keys: ``three_run_columns`` for
  an unlabeled class, of two blocks padded with an empty run or of three,
  and ``mirrored_run_columns`` for a labeled class of one block padded
  with an empty run or of two, on the runs' tops;
* the miss's GK dimension is the plan's base less the depth sums of the
  ``key_columns`` of every class (even boxes only in a labeled class).

Exits 1 at the first disagreement, and when a family meets none of the
class kinds it should or fails its verification.  Pytest does not collect
it (no ``test_`` prefix); run it as

    PYTHONPATH=src python tests/closed_form_misses.py
"""

from __future__ import annotations

import sys
from collections import Counter

from gvmred import gk, verify_family
from gvmred.tableaux import key_columns, mirrored_run_columns, three_run_columns

from references import columns_depth_sum, columns_even_depth_sum, plan_parts

# each family and the (labeled, blocks, padded) class kinds its misses must
# meet in closed form: unlabeled classes of two blocks (padded) and three,
# and in type D labeled classes of one block (padded) and two
FAMILIES = (
    ("A", 14, {(False, 2, True), (False, 3, False)}),
    ("D", 43, {(False, 2, True), (False, 3, False), (True, 1, True), (True, 2, False)}),
)


def closed_form(labeled: bool, runs, values) -> tuple[int, ...]:
    """The class's column lengths from its runs' tops, zeros dropped."""
    tops = [values[i] + top for i, top, _ in runs]
    arguments = [x for top, (_, _, length) in zip(tops, runs) for x in (top, length)]
    columns = mirrored_run_columns(*arguments) if labeled else three_run_columns(*arguments)
    return tuple(c for c in columns if c)


def check_miss(setup, exact, gk_value, seen: Counter) -> str | None:
    """What disagrees at one miss, or None."""
    pattern = tuple([None if v is None else 0 for v in exact])
    base, classes = setup.class_plans[pattern]
    values = (0, *exact, *[None if v is None else -v for v in reversed(exact)])
    reference = base
    for labeled, runs in classes:
        keys = [values[i] + t for i, terms in plan_parts(labeled, runs) for t in terms]
        columns = key_columns(keys)
        reference -= columns_even_depth_sum(columns) if labeled else columns_depth_sum(columns)
        if not labeled or len(runs) == 2:  # the miss loop's closed-form branches
            closed = closed_form(labeled, runs, values)
            if closed != columns:
                return f"runs {runs} at {exact}: closed form {closed}, insertion {columns}"
            blocks = sum(1 for _, _, length in runs if length)
            seen[labeled, blocks, blocks < len(runs)] += 1
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
        for kind, n_max, kinds in FAMILIES:
            misses.clear()
            report = verify_family(kind, n_max)
            seen: Counter = Counter()
            for setup, exact, value in misses:
                problem = check_miss(setup, exact, value, seen)
                if problem is not None:
                    print(f"{kind}<={n_max} {setup}: {problem}")
                    return 1
            counts = ", ".join(
                f"{count} {'labeled' if labeled else 'unlabeled'} of {blocks} block{'s' * (blocks > 1)}"
                + (" (padded)" if padded else "")
                for (labeled, blocks, padded), count in sorted(seen.items())
            )
            print(
                f"{kind}<={n_max}: {len(misses)} misses, closed forms agree on {counts}; "
                f"verify ok={report.ok}"
            )
            if not report.ok or not kinds <= {k for k, count in seen.items() if count}:
                status = 1
    finally:
        gk._gk_from_values = miss
    return status


if __name__ == "__main__":
    sys.exit(main())
