"""Spans around every call the benchmark makes into kmiter.

A workload op calls kmiter only through a ``call(name, fn, *args)``
function.  Untraced runs get :func:`direct`, which adds one Python call and
nothing else.  Traced ops get :meth:`Tracer.call`, which records a span
(layer name, start, end, parent op) and the number of numpy
``RuntimeWarning``s the call raised.  Warnings are recorded with
``catch_warnings(record=True)`` and the ``always`` filter, so none is
silenced or deduplicated before it is counted.

Ops begun with ``memory=True`` also run under ``tracemalloc`` and record
each call's peak above what was allocated when it started
(``tracemalloc.reset_peak`` per call).  ``tracemalloc`` hooks every
allocation and slows allocation-heavy layers several times over, so those
ops are kept apart and their times are not used.

Layer spans do not nest (the benchmark never calls kmiter from inside a
kmiter call), so a layer's self time is its span's duration and the op
span's self time is the benchmark's own glue between the calls.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import time
import tracemalloc
import warnings
from dataclasses import asdict, dataclass
from typing import Optional


def direct(name, fn, *args, **kwargs):
    """The untraced ``call``: run ``fn`` and nothing else."""
    return fn(*args, **kwargs)


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int  # id of the parent op span; -1 for an op span itself
    peak_bytes: int = 0
    runtime_warnings: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.ops: list[Span] = []  # op spans; an op's id is its index here
        self.spans: list[Span] = []  # layer spans
        self.op_groups: list[str] = []  # "op", "setup", "memory", "scale", ... per op span
        self._open: Optional[int] = None

    def begin_op(self, name: str, group: str = "op", memory: bool = False) -> None:
        self._open = len(self.ops)
        self.ops.append(Span(name, time.perf_counter() - self.t0, 0.0, -1))
        self.op_groups.append(group)
        if memory:
            tracemalloc.start()

    def end_op(self) -> None:
        tracemalloc.stop()
        self.ops[self._open].end = time.perf_counter() - self.t0
        self._open = None

    def call(self, name, fn, *args, **kwargs):
        memory = tracemalloc.is_tracing()
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                peak = tracemalloc.get_traced_memory()[1] - base if memory else 0
                n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                self.spans.append(
                    Span(name, start - self.t0, end - self.t0, self._open, peak, n_warn)
                )

    def spans_by_op(self) -> list[dict[str, list[Span]]]:
        """Layer spans grouped by layer name, one dict per op span."""
        out = [dict() for _ in self.ops]
        for s in self.spans:
            out[s.op].setdefault(s.name, []).append(s)
        return out

    def coverage(self) -> list[float]:
        """Per op: share of the op span covered by its layer spans."""
        covered = [0.0] * len(self.ops)
        for s in self.spans:
            covered[s.op] += s.seconds
        return [
            c / op.seconds
            for c, op, g in zip(covered, self.ops, self.op_groups)
            if g == "op" and op.seconds > 0.0
        ]

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["ops"] = [dict(asdict(s), group=g) for s, g in zip(self.ops, self.op_groups)]
        doc["spans"] = [asdict(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
