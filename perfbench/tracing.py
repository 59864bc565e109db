"""Span recording around gvmred's public functions, from outside the package.

``Tracer.install`` replaces each traced function at the name its caller
looks up (``gk`` calls ``depth_sum`` through its own module globals, and
``ExactScalar.__init__`` through the class), and ``uninstall`` puts
the originals back, so untraced rounds run unmodified code.  A span is
(name, start, end, parent); a layer's self time is its span minus the
spans of its children.  Counters are attributed to the innermost open
span, so per-point ratios count only work done inside the oracle.

This module imports only ``time`` and ``array``, so loading it into a
traced CLI process adds almost nothing to that process.
"""

from __future__ import annotations

import time
from array import array

ORACLE_SPANS = (
    "verdict.evaluate",
    "verdict.criterion",
    "gk.gk_dimension",
    "rootdata.shifted_weight",
    "gk.integrality_classes",
    "tableaux.rs_shape",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    def count(self, counter: str, amount: int = 1) -> None:
        span = self.names[self.span_name[self._stack[-1]]] if self._stack else ""
        key = (counter, span)
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- instrumentation -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the oracle, criterion and CLI layers of ``gvmred``; the
        benchmark records the sweep, grid and output spans at its own call
        sites with ``call``."""
        from gvmred import cli, exact, gk, harness, tableaux, verdict

        originals = {
            "gk_dimension": gk.gk_dimension,
            "shifted_weight": gk.shifted_weight,
            "integrality_classes": gk.integrality_classes,
            "rs_shape": tableaux.rs_shape,
            "evaluate": verdict.evaluate,
            "criterion": verdict.criterion,
            "parse_scalar": cli.parse_scalar,
            "scalar_init": exact.ExactScalar.__init__,
            "sub_is_integer": gk.sub_is_integer,
            "sum_is_integer": gk.sum_is_integer,
        }

        def classes_done(args, result):
            self.count("gk.classes", len(result.classes))

        def rs_done(args, result):
            self.count("tableaux.rs_entries", len(args[0]))

        def scalar_init(obj, *args, **kwargs):
            self.count("exact.scalars")
            originals["scalar_init"](obj, *args, **kwargs)

        def integer_test(fn):
            def counted(a, b):
                self.count("exact.integer_tests")
                return fn(a, b)

            return counted

        wrap = self._span_wrapper
        # verdict.evaluate -> reducible_oracle -> gk_dimension (verdict globals)
        self._patch(verdict, "gk_dimension", wrap("gk.gk_dimension", originals["gk_dimension"]))
        self._patch(cli, "gk_dimension", verdict.gk_dimension)
        self._patch(gk, "shifted_weight", wrap("rootdata.shifted_weight", originals["shifted_weight"]))
        self._patch(
            gk,
            "integrality_classes",
            wrap("gk.integrality_classes", originals["integrality_classes"], classes_done),
        )
        # depth_sum and even_depth_sum look rs_shape up in tableaux
        self._patch(tableaux, "rs_shape", wrap("tableaux.rs_shape", originals["rs_shape"], rs_done))
        self._patch(harness, "evaluate", wrap("verdict.evaluate", originals["evaluate"]))
        self._patch(cli, "evaluate", harness.evaluate)
        self._patch(verdict, "criterion", wrap("verdict.criterion", originals["criterion"]))
        self._patch(cli, "parse_scalar", wrap("cli.parse_scalar", originals["parse_scalar"]))
        self._patch(exact.ExactScalar, "__init__", scalar_init)
        self._patch(gk, "sub_is_integer", integer_test(originals["sub_is_integer"]))
        self._patch(gk, "sum_is_integer", integer_test(originals["sum_is_integer"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, total seconds; and counters
        keyed ``counter`` (all spans) and ``counter@oracle`` (inside the
        oracle spans only)."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        spans: dict[str, list[float]] = {}
        for i in range(n):
            duration = self.span_end[i] - self.span_start[i]
            entry = spans.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - child[i]
            entry[2] += duration
        counters: dict[str, int] = {}
        for (counter, span), value in self.counters.items():
            counters[counter] = counters.get(counter, 0) + value
            if span in ORACLE_SPANS:
                key = counter + "@oracle"
                counters[key] = counters.get(key, 0) + value
        return {"spans": spans, "counters": counters}

    def write_spans(self, path) -> None:
        """Every recorded span as tab-separated name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )


def merge_summaries(parts) -> dict:
    merged: dict = {"spans": {}, "counters": {}}
    for part in parts:
        for name, (calls, self_s, total_s) in part["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for name, value in part["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged
