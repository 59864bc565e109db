"""Child process for the benchmark: times gvmred's import and set-up, or one
CLI query, from inside a fresh interpreter.

    python probe.py setup '<json spec>'     -> prints {"import_s", "build_s", "cal_s"}
    python probe.py query [--trace] ARGV... -> runs ``gvmred ARGV``; its output
                                               goes to stdout, the timings to
                                               stderr after a marker line

``gvmred`` must be importable (``PYTHONPATH=src``).  The spec names either
a family (``{"family": ["A", 6]}``) or setups (``{"setups": [["D", 6, 1, 5]],
"grids": true}``); grids are built with ``standard_grid``.  Only ``sys`` and
``time`` are imported before gvmred, so the import time is gvmred's own.
``cal_s`` is the mean time of two calibration chunks run afterwards in the
same process, by which the benchmark scales the other two.
"""

import sys
import time

MARKER = "--- probe ---"


def _setup(spec_text: str) -> str:
    t0 = time.perf_counter()
    import gvmred
    import gvmred.cli  # noqa: F401  (part of every user-facing import)

    t1 = time.perf_counter()
    import json

    spec = json.loads(spec_text)
    if "family" in spec:
        setups = gvmred.family_setups(*spec["family"])
    else:
        setups = [
            gvmred.ParabolicSetup(gvmred.LieType(kind, n), p, q)
            for kind, n, p, q in spec["setups"]
        ]
    if spec.get("grids", True):
        [gvmred.standard_grid(s) for s in setups]
    t2 = time.perf_counter()
    import reference

    reference.calibration_work()  # builds the calibration points
    t3 = time.perf_counter()
    reference.calibration_work()
    reference.calibration_work()
    cal_s = (time.perf_counter() - t3) / 2
    return json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "cal_s": cal_s})


def _query(argv: list[str], trace: bool) -> int:
    t0 = time.perf_counter()
    import gvmred.cli

    t1 = time.perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    code = gvmred.cli.main(argv)
    t3 = time.perf_counter()
    sys.stdout.flush()
    import json

    report = {"import_ms": (t1 - t0) * 1e3, "main_ms": (t3 - t2) * 1e3}
    if tracer is not None:
        tracer.uninstall()
        report["summary"] = tracer.summary()
    sys.stderr.write(MARKER + "\n" + json.dumps(report) + "\n")
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(_setup(argv[1]))
        return 0
    if argv[:1] == ["query"]:
        trace = argv[1:2] == ["--trace"]
        return _query(argv[2:] if trace else argv[1:], trace)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
