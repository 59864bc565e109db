"""The closed forms against insertion, on every class kind a GK miss reads,
at every GK miss of the largest verify families, and the spin-swap reading
of so(2n) (1, n - 1)'s labeled class of three blocks.

Runs ``verify_family`` on type A up to rank 14 and type D up to rank 43
with each memo miss (``gk._gk_from_plan``) recorded, with the setup being
verified (the last one whose grid ``harness.standard_grid`` gave).  At
every miss it pairs each class of the miss's class plan with its class in
the block split on the miss's own values (``references.reader_classes``)
and checks:

* each class has the column lengths ``tableaux.key_columns`` gives on its
  plan's keys in closed form, on the runs' tops: ``three_run_columns``
  for an unlabeled class, of two blocks padded with an empty run or of
  three, and ``mirrored_run_columns`` for a labeled class, of one block
  padded with an empty run, of two, or of three read as two runs;
* a class's plan keys are its own keys, built from the block split, but
  for a labeled class of three blocks, whose closed form has the
  even-box depth sum of ``key_columns`` of its own 2n keys, X, R, -y then
  their reversed negation;
* the miss's GK dimension is the plan's base less the depth sums of the
  ``key_columns`` of every class's own keys (even boxes only in a labeled
  class).

Then it checks that spin-swap reading for every n from 4 to 40 and every
(X, y) of ``references.six_run_cases``, windows past every threshold.

Exits 1 at the first disagreement, and when a family records no miss,
meets none of a class kind it should, or fails its verification.  Pytest
does not collect it (no ``test_`` prefix); run it as

    PYTHONPATH=src python tests/closed_form_misses.py
"""

from __future__ import annotations

import sys
from collections import Counter

from gvmred import gk, harness, verify_family
from gvmred.tableaux import key_columns, mirrored_run_columns, three_run_columns

from references import (
    columns_depth_sum,
    columns_even_depth_sum,
    plan_parts,
    reader_classes,
    six_run_cases,
    six_run_keys,
)

# each family and the (labeled, blocks, padded) class kinds its misses must
# meet in closed form: unlabeled classes of two blocks (padded) and three,
# and in type D labeled classes of one block (padded), two and three
FAMILIES = (
    ("A", 14, {(False, 2, True), (False, 3, False)}),
    (
        "D",
        43,
        {(False, 2, True), (False, 3, False), (True, 1, True), (True, 2, False), (True, 3, False)},
    ),
)
SPIN_SWAP_RANKS = range(4, 41)


def closed_form(labeled: bool, runs, values) -> tuple[int, ...]:
    """The class's column lengths from its runs' tops, zeros dropped."""
    tops = [values[i] + top for i, top, _ in runs]
    arguments = [x for top, (_, _, length) in zip(tops, runs) for x in (top, length)]
    columns = mirrored_run_columns(*arguments) if labeled else three_run_columns(*arguments)
    return tuple(c for c in columns if c)


def depth_sum(labeled: bool, columns) -> int:
    return columns_even_depth_sum(columns) if labeled else columns_depth_sum(columns)


def check_miss(setup, plan, exact, gk_value, seen: Counter) -> str | None:
    """What disagrees at one miss, or None."""
    base, classes = plan
    values = (0, *exact, *[None if v is None else -v for v in reversed(exact)])
    split = reader_classes(setup, exact)
    kept = [(labeled, parts) for labeled, parts in split if labeled or len(parts) > 1]
    if len(kept) != len(classes):
        return f"plan {classes} at {exact} against the split {split}"
    reference = base
    for (labeled, runs), (_, parts) in zip(classes, kept):
        keys = [values[i] + t for i, terms in plan_parts(labeled, runs) for t in terms]
        own = [b + t for b, terms in parts for t in terms]
        if labeled:
            own += [-k for k in reversed(own)]
        columns, own_columns = key_columns(keys), key_columns(own)
        closed = closed_form(labeled, runs, values)
        if closed != columns:
            return f"runs {runs} at {exact}: closed form {closed}, insertion {columns}"
        if labeled and len(parts) == 3:  # read through the spin swap
            if depth_sum(True, closed) != depth_sum(True, own_columns):
                return f"runs {runs} at {exact}: closed form {closed}, own keys {own_columns}"
        elif keys != own:
            return f"runs {runs} at {exact}: keys {keys}, own keys {own}"
        reference -= depth_sum(labeled, own_columns)
        seen[labeled, len(parts), len(parts) < len(runs)] += 1
    if reference != gk_value:
        return f"GK {gk_value} at {exact}, the own keys give {reference}"
    return None


def spin_swap_cases() -> tuple[int, str | None]:
    """The cases checked, and the first (n, X, y) whose 2n keys' even-box
    depth sum is not that of their two-run reading, or None."""
    cases = 0
    for n in SPIN_SWAP_RANKS:
        for X, y in six_run_cases(n):
            own = key_columns(six_run_keys(X, y, n))
            closed = mirrored_run_columns(X, 1, y + 2 * (n - 2), n - 1)
            if depth_sum(True, own) != depth_sum(True, tuple(c for c in closed if c)):
                return cases, f"n={n} X={X} y={y}: closed form {closed}, own keys {own}"
            cases += 1
    return cases, None


def main() -> int:
    misses, current = [], []
    miss, standard_grid = gk._gk_from_plan, harness.standard_grid

    def recorded_grid(setup):  # verify_family asks it once per setup, before its misses
        current[:] = [setup]
        return standard_grid(setup)

    def recorded(plan, exact):
        value = miss(plan, exact)
        misses.append((current[0], plan, exact, value))
        return value

    status = 0
    gk._gk_from_plan, harness.standard_grid = recorded, recorded_grid
    try:
        for kind, n_max, kinds in FAMILIES:
            misses.clear()
            report = verify_family(kind, n_max)
            seen: Counter = Counter()
            for setup, plan, exact, value in misses:
                problem = check_miss(setup, plan, exact, value, seen)
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
            if not misses or not report.ok or not kinds <= {k for k, c in seen.items() if c}:
                status = 1
    finally:
        gk._gk_from_plan, harness.standard_grid = miss, standard_grid
    cases, problem = spin_swap_cases()
    if problem is not None:
        print(f"spin swap: {problem}")
        return 1
    print(
        f"spin swap, n = {SPIN_SWAP_RANKS[0]} to {SPIN_SWAP_RANKS[-1]}: {cases} cases, "
        "the two-run reading has the six-run keys' even-box depth sum"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
