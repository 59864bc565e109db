#!/usr/bin/env python3
"""Print the SHA-256 of every file the sweep-render workload writes.

    python3 perfbench/digests.py                  # gvmred from this checkout
    python3 perfbench/digests.py --src OTHER/src  # gvmred from another tree

To compare with another commit, export its sources and point ``--src`` at
them, e.g. ``git archive <commit> src | tar -x -C OLD`` and then
``--src OLD/src``; equal lines mean byte-identical CSV, JSON, SVG and
ASCII output on the paper's configurations.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from run import RENDER_CONFIGS, SRC, output_name, render_outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding gvmred/")
    args = parser.parse_args(argv)
    if not (args.src / "gvmred" / "__init__.py").is_file():
        parser.error(f"no gvmred package under {args.src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.src.resolve()))
    import gvmred

    for kind, n, p, q in RENDER_CONFIGS:
        setup = gvmred.ParabolicSetup(gvmred.LieType(kind, n), p, q)
        report = gvmred.sweep(setup, gvmred.standard_grid(setup))
        for fmt, body in render_outputs(gvmred, report).items():
            digest = hashlib.sha256(body.encode()).hexdigest()
            print(f"sha256 {digest}  {output_name(kind, n, p, q, fmt)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
