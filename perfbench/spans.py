"""In-memory spans around the calls into trapcube's public functions.

The benchmark never edits the package.  While a :class:`Tracer` is
installed it replaces module attributes such as
``trapcube.cubature.product_trapezoid`` with a wrapper that records one
span per call and forwards to the original.  Python looks a module
global up at call time, so the wrapper sees exactly the calls that the
package makes through that name.  Each span is named after the
attribute its caller looks it up by, and :meth:`Tracer.uninstall` puts
the originals back.

A target that a later version of the package no longer has is skipped,
so a function that stops being called reports zero instead of an error.
"""
from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute) pairs wrapped in traced and counting passes.  The
#: module is the caller's namespace, so ``trapcube.cli.refine`` and
#: ``trapcube.refine`` are separate spans around the same function.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("trapcube.cli", "main"),
    ("trapcube.cli", "table_rows"),
    ("trapcube.cli", "refine"),
    ("trapcube.cli", "refine_mean"),
    ("trapcube.cli", "s_minus"),
    ("trapcube.cli", "s_plus"),
    ("trapcube.cli", "definiteness_scan"),
    ("trapcube", "enclosure"),
    ("trapcube", "refine"),
    ("trapcube", "refine_mean"),
    ("trapcube.adaptive", "s_minus"),
    ("trapcube.adaptive", "s_plus"),
    ("trapcube.cubature", "s_minus"),
    ("trapcube.cubature", "s_plus"),
    ("trapcube.cubature", "product_trapezoid"),
    ("trapcube.cubature", "trace_integral"),
    ("trapcube.cubature", "apply"),
)

#: Name of the root span the benchmark opens around every op.
OP_SPAN = "op"

# Span fields, stored as lists so the end time can be filled in.
NAME, START, END, PARENT, OP, EVALS = range(6)


class Tracer:
    """Records spans, and optionally integrand evaluations, per call.

    Spans are kept in memory as ``[name, start, end, parent, op, evals]``
    where ``parent`` indexes the enclosing span and ``op`` is the id of
    the benchmark op that caused the call.  ``evals`` counts integrand
    points evaluated while the span was the innermost open one; only a
    counting pass feeds it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: span name -> module that defines the wrapped function
        self.defined_in: Dict[str, str] = {OP_SPAN: "benchmark"}

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else None, self.op, 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = perf_counter()

        return traced

    def run_op(self, op_id: int, call: Callable[[], object]) -> object:
        """Call ``call`` inside a root span tagged with ``op_id``."""
        self.op = op_id
        try:
            return self.wrap(OP_SPAN, call)()
        finally:
            self.op = None

    def add_evals(self, count: int) -> None:
        if self._stack:
            self.spans[self._stack[-1]][EVALS] += count

    def counted(self, f: Callable[[float, float], float]) -> Callable[[float, float], float]:
        """Wrap an integrand so each evaluated point is counted.

        Scalar calls count one point; array calls count the size of the
        broadcast arguments, so a vectorized caller is counted fairly.
        """
        add = self.add_evals

        def counting(x, y):
            if type(x) is float and type(y) is float:
                add(1)
            else:
                import numpy as np

                add(int(np.broadcast(x, y).size))
            return f(x, y)

        return counting

    def install(self) -> None:
        for module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            name = f"{module_name}.{attr}"
            self.defined_in[name] = getattr(fn, "__module__", module_name) or module_name
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def by_name(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total time, self time and evaluations.

    Self time is a span's duration minus the durations of its direct
    children; calls nest on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "time": 0.0, "self": 0.0, "evals": 0}
    )
    for i, s in enumerate(spans):
        row = out[s[NAME]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["time"] += dur
        row["self"] += dur - child_time[i]
        row["evals"] += s[EVALS]
    return out


def attr_of(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def summed(table: Dict[str, Dict[str, float]], field: str, attrs: Tuple[str, ...]) -> float:
    """Sum one field over all spans whose attribute name is in ``attrs``."""
    return sum(row[field] for name, row in table.items() if attr_of(name) in attrs)


def per_op(spans: List[list]) -> Dict[int, Dict[str, int]]:
    """Per op id: integrand evaluations in total and calls per span name."""
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s[OP] is not None:
            row = out[s[OP]]
            row["evals"] += s[EVALS]
            row[s[NAME]] += 1
    return out


def self_by_layer(table: Dict[str, Dict[str, float]], defined_in: Dict[str, str]) -> Dict[str, float]:
    """Self time grouped by the module that defines each spanned function."""
    out: Dict[str, float] = defaultdict(float)
    for name, row in table.items():
        out[defined_in.get(name, "?")] += row["self"]
    return dict(out)


def compact(spans: List[list]) -> dict:
    """The spans in a form small enough to write out as JSON."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][START] if spans else 0.0
    rows = [
        [index[s[NAME]], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT], s[OP], s[EVALS]]
        for s in spans
    ]
    return {"fields": ["name", "start_s", "end_s", "parent", "op", "evals"], "names": names, "spans": rows}


def finite_ratio(num: float, den: float) -> float:
    return num / den if den and math.isfinite(den) else 0.0
