"""In-memory span recorder and the outside-in instrumentation of the flow.

Spans are recorded from the benchmark's side of the program boundary:

* one ``flow`` span around each ``Pipeline.run`` call;
* one ``pass.<name>`` span per pass, opened and closed by the hooks that
  ``Pipeline.with_hooks`` registers;
* one kernel span around each public function a pass module calls,
  installed by :func:`instrument`, which swaps the module attribute the
  caller looks up for a timing wrapper and restores it on exit.

Nothing under ``src/`` is modified.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at a root
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (per-thread nesting) and additive counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )
        stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. from job status stamps)."""
        with self._lock:
            self.spans.append(Span(name, start, end, -1, self.run_id))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -- views ---------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Summed duration of every span name."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus direct children.

        Children of one span run on the parent's thread and never
        overlap, so their summed durations are the covered part.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + s.duration - child_time[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "clock": "time.perf_counter seconds",
                    "spans": [asdict(s) for s in self.spans],
                    "counters": self.counters,
                },
                fh,
            )


def pass_hooks(tracer: Tracer) -> Tuple[Callable, Callable]:
    """``(on_pass_start, on_pass_end)`` callbacks for ``Pipeline.with_hooks``."""
    open_spans: Dict[int, int] = {}

    def on_start(_ctx, pass_) -> None:
        open_spans[threading.get_ident()] = tracer.begin(f"pass.{pass_.name}")

    def on_end(_ctx, _pass, _elapsed) -> None:
        tracer.end(open_spans.pop(threading.get_ident()))

    return on_start, on_end


def _num_cuts(db) -> int:
    leaves, _bits = db.raw_rows()
    return len(leaves)


#: (module the caller looks the name up in, attribute, span name,
#:  counters taken from the return value)
KERNELS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.pipeline.passes.decompose", "decompose_to_library",
     "sfq.mapping.decompose_to_library", None),
    ("repro.pipeline.passes.decompose", "strash", "network.cleanup.strash",
     lambda r: {"network.cleanup.gates_out": r[0].num_gates()}),
    ("repro.core.t1_detection", "find_candidates",
     "core.t1_detection.find_candidates",
     lambda r: {"core.t1_detection.found": len(r)}),
    ("repro.core.t1_detection", "cached_cut_database", "network.cuts.cut_db",
     lambda r: {"network.cuts.cuts": _num_cuts(r)}),
    ("repro.core.t1_detection", "select_candidates",
     "core.t1_detection.select_candidates",
     lambda r: {"core.t1_detection.used": len(r)}),
    ("repro.core.t1_detection", "apply_candidates",
     "core.t1_detection.apply_candidates", None),
    ("repro.pipeline.passes.t1_detect", "check_equivalence",
     "network.equivalence.check_equivalence", None),
    ("repro.pipeline.passes.mapping", "map_to_sfq", "sfq.mapping.map_to_sfq",
     lambda r: {"sfq.mapping.cells": len(r[0].cells)}),
    ("repro.core.phase_assignment", "assign_stages_heuristic",
     "core.phase_assignment.heuristic",
     lambda r: {
         "core.phase_assignment.moves_evaluated": r.moves_evaluated,
         "core.phase_assignment.moves_applied": r.moves_applied,
         "core.phase_assignment.sweeps_run": r.sweeps_run,
     }),
    ("repro.pipeline.passes.dff_insert", "insert_dffs",
     "core.dff_insertion.insert_dffs",
     lambda r: {
         "core.dff_insertion.path_dffs": r.path_dffs,
         "core.dff_insertion.t1_stagger_dffs": r.t1_stagger_dffs,
         "core.dff_insertion.po_balance_dffs": r.po_balance_dffs,
     }),
    ("repro.pipeline.passes.finalize", "assert_timing",
     "sfq.timing.assert_timing", None),
    ("repro.pipeline.passes.finalize", "measure", "metrics.measure", None),
)


def _wrap(tracer: Tracer, fn: Callable, name: str, counters) -> Callable:
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counters is not None:
            for key, value in counters(result).items():
                tracer.count(key, value)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every kernel in :data:`KERNELS` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counters in KERNELS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, counters))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
