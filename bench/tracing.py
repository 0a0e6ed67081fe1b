"""Span recorders installed from outside around the layers' public functions.

A :class:`Tracer` replaces selected module attributes of ``aireliab`` with
wrappers that record one span per call: name, layer, start, end, parent
span, job id and a few counts taken from the call's result.  Because the
``air`` command line calls its layers through module attributes
(``datasets.load``, ``propagation.fit_ep``, ...), the wrappers see every
call a job makes without any change to the package.  Spans stay in memory
until the pass ends.

Self time is a span's duration minus the part of it that child spans cover.
When child spans overlap (the command line fans fits out over a thread
pool), each instant is split evenly among the innermost spans running at
that instant, so the self times of one job always add up to the job's
wall time.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, layer, kind).  Kinds name the per-layer metric the
# span's self time is charged to.
TARGETS = (
    ("aireliab.datasets.io", "parse_records", "datasets", "parse"),
    ("aireliab.datasets", "dump", "datasets", "format"),
    ("aireliab.datasets", "derive_exposure", "datasets", "exposure"),
    ("aireliab.datasets", "summarize", "datasets", "summary"),
    ("aireliab.simulate", "simulate_fleet", "simulate", "gen"),
    ("aireliab.simulate", "simulate_ep_cascade", "simulate", "gen"),
    ("aireliab.simulate", "simulate_srgm_counts", "simulate", "gen"),
    ("aireliab.simulate", "simulate_mixture_records", "simulate", "gen"),
    ("aireliab.simulate", "disengagement_records", "simulate", "convert"),
    ("aireliab.simulate", "module_error_records", "simulate", "convert"),
    ("aireliab.simulate", "adversarial_records", "simulate", "convert"),
    ("aireliab.simulate", "module_event_log", "simulate", "convert"),
    ("aireliab.simulate", "event_series_from_disengagements", "simulate", "convert"),
    ("aireliab.simulate", "collision_times", "simulate", "convert"),
    ("aireliab.simulate", "interval_series_from_adversarial", "simulate", "convert"),
    ("aireliab.recurrent", "fit_mle", "recurrent", "fit"),
    ("aireliab.recurrent", "fit_manufacturer_level", "recurrent", "fit"),
    ("aireliab.recurrent", "curve_table", "recurrent", "curve"),
    ("aireliab.propagation", "fit_ep", "propagation", "fit"),
    ("aireliab.propagation", "fit_independent_nhpp", "propagation", "fit"),
    ("aireliab.propagation", "fit_independent_hpp", "propagation", "fit"),
    ("aireliab.propagation", "evaluate_mae", "propagation", "predict"),
    ("aireliab.srgm", "fit_srgm", "srgm", "fit"),
    ("aireliab.srgm", "forward_stepwise", "srgm", "fit"),
    ("aireliab.srgm", "fit_resilience", "srgm", "resilience"),
    ("aireliab.regression", "fit_mixture", "regression", "fit"),
    ("aireliab.regression", "predict_simplex_grid", "regression", "grid"),
    ("aireliab.design", "search_mmlhd", "design", "lhd"),
    ("aireliab.design", "acceleration_factor", "design", "alt"),
)

# Functions whose result carries the optimizer's iteration count.  Wrappers
# that return an inner fitter's result (fit_manufacturer_level,
# fit_independent_nhpp, forward_stepwise) are left out so nothing counts twice.
ITERATION_SOURCES = {"fit_mle", "fit_ep", "fit_srgm"}


@dataclass
class Span:
    name: str
    layer: str
    kind: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _result_counts(name, args, result) -> dict:
    """Exact-repeat counts read from a call's arguments and result."""
    if name == "parse_records":
        return {"rows_parsed": result[1].rows}
    if name == "dump":
        return {"rows_written": len(args[0])}
    if name in ITERATION_SOURCES:
        return {"fit_iterations": int(result.iterations)}
    if name == "simulate_fleet":
        return {"events_generated": int(sum(len(s.event_times) for s in result))}
    if name == "simulate_ep_cascade":
        return {"events_generated": int(sum(len(t) for t in result.events.values()))}
    if name == "simulate_srgm_counts":
        return {"events_generated": int(result.counts.sum())}
    if name == "simulate_mixture_records":
        return {"events_generated": len(result)}
    if name == "search_mmlhd":
        return {"accepted_moves": int(result.accepted), "moves": int(result.budget)}
    return {}


class Tracer:
    """Records spans for the calls a pass makes; install, run, uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._job = -1
        self._root: int | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer, kind))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, name, layer, kind) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        span = Span(name, layer, kind, self._job, parent, time.perf_counter())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index, error=False, counts=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        if counts:
            span.counts = counts
        self._local.stack.pop()

    def begin_job(self, job: int, name: str) -> None:
        self._job = job
        self._root = None  # the root span has no parent
        self._root = self._open(name, "cli", "job")

    def end_job(self, error: bool) -> None:
        self._close(self._root, error)
        self._root = None

    def _wrap(self, original, name, layer, kind):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name, layer, kind)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, error=True)
                raise
            tracer._close(index, counts=_result_counts(name, args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper


def self_times(spans) -> list[float]:
    """Self time of each span; the spans of one job sum to its root's duration."""
    out = [0.0] * len(spans)
    by_job: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_job.setdefault(span.job, []).append(i)
    for members in by_job.values():
        children = {i: [] for i in members}
        for i in members:
            parent = spans[i].parent
            if parent is not None:
                children[parent].append(i)
        points = sorted({t for i in members for t in (spans[i].start, spans[i].end)})
        for a, b in zip(points[:-1], points[1:]):
            active = [i for i in members if spans[i].start <= a and spans[i].end >= b]
            active_set = set(active)
            leaves = [i for i in active if not any(c in active_set for c in children[i])]
            for i in leaves:
                out[i] += (b - a) / len(leaves)
    return out
