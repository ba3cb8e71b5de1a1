"""Span recording around the public functions of each layer of ``repro``.

The trace is built from this directory alone: :meth:`Tracer.install`
replaces the public functions and methods listed in :data:`LAYERS` with
wrappers that record one span per call, and nothing under ``src/`` changes.
Spans stay in memory; a forked pool worker writes its own spans to a file
when it exits, and :meth:`Tracer.collect` reads them back.

Self time is computed by :func:`self_times`: a span's duration minus the
part of it that its child spans cover.  Several processes or threads can
be busy at once (the grid's pool, the service's server thread), so each
instant of wall time is divided among the spans that are innermost at that
instant; a caller that only waits on another lane (``run_sweep`` while its
pool works, a service client while the server answers) gets no share while
that lane is busy.  The layer self times of a run therefore add up to at
most its wall time.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One recorded call.  ``lane`` is ``(pid, thread id)``; calls in one
    lane nest, so the enclosing span (the caller) is found from the times."""

    lane: tuple[int, int]
    name: str
    start: float
    end: float
    lines: int = 0
    hit: bool = False


#: layer span names whose callers wait on another lane while it works
DISPATCHERS = frozenset({"core.parallel.run_sweep", "service.client"})


def _len_arg(index: int, keyword: str):
    """A line counter: ``len()`` of the call's argument ``index``/``keyword``."""

    def count(args, kwargs, _result) -> int:
        value = kwargs[keyword] if keyword in kwargs else args[index]
        return len(value)

    return count


def _is_hit(_args, _kwargs, result) -> bool:
    return result is not None


#: (span name, module, attribute path, line counter, hit test)
LAYERS = (
    ("caches", "repro.caches.hierarchy", "CacheHierarchy.access_chunk", _len_arg(2, "lines"), None),
    ("reference.replay", "repro.reference.cachesim", "simulate_trace", _len_arg(0, "trace"), None),
    ("workloads.chunk", "repro.workloads.base", "Workload.chunk", None, None),
    ("workloads.chunk", "repro.workloads.tracefile", "TraceReplayWorkload.chunk", None, None),
    ("core.pirate.chunk", "repro.core.pirate", "PirateThreadWorkload.chunk", None, None),
    ("core.harness.point", "repro.core.parallel", "measure_sweep_point", None, None),
    ("core.parallel.run_sweep", "repro.core.parallel", "run_sweep", None, None),
    ("core.parallel.run_sweep", "repro.core.supervisor", "run_sweep_supervised", None, None),
    ("core.parallel.cache_load", "repro.core.parallel", "SweepCache.load", None, _is_hit),
    ("core.parallel.cache_store", "repro.core.parallel", "SweepCache.store", None, None),
    ("hardware.machine", "repro.hardware.machine", "Machine.run", None, None),
    ("hardware.timing", "repro.hardware.core", "CoreTimingModel.quantum_cycles", None, None),
    ("tracing.capture", "repro.tracing.tracer", "capture_trace", None, None),
    ("tracing.profile", "repro.tracing.profiler", "profile_workload", None, None),
    ("surrogate.model", "repro.surrogate.engine", "build_surrogate_model", None, None),
    ("scenarios.compile", "repro.scenarios.grid", "compile_grid", None, None),
    ("scenarios.cell", "repro.scenarios.runner", "run_cell", None, None),
    ("service.server", "repro.service.server", "SweepServer.submit", None, None),
    ("service.server", "repro.service.server", "SweepServer.fetch", None, None),
    ("service.store", "repro.service.store", "ResultStore.get", None, None),
    ("service.store", "repro.service.store", "ResultStore.put", None, None),
    ("service.client", "repro.service.client", "ServiceClient.submit", None, None),
    ("service.client", "repro.service.client", "ServiceClient.fetch", None, None),
)


class Tracer:
    """In-memory span recorder for one benchmark process and its forks.

    ``spill_dir`` is where forked children leave their spans; it must
    exist and be private to this run.
    """

    def __init__(self, spill_dir: str | Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed = False

    # -- recording ----------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "replay"):
            local.replay = 0
        return local

    def _adopt_fork(self) -> None:
        """First span in a forked child: drop the parent's copy, spill at exit."""
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        # multiprocessing runs these finalizers when a pool worker exits
        mp_util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.pkl"
        with open(path, "wb") as f:
            pickle.dump(self.spans, f)

    def _wrap(self, name: str, fn, count_lines, hit_test):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_fork()
            state = tracer._state()
            span_name = name
            if name == "caches":
                if state.replay:
                    # the reference replay's own hierarchy: its time and
                    # lines belong to reference.replay, not to the Target
                    return fn(*args, **kwargs)
                bypass = kwargs.get("bypass_private", args[4] if len(args) > 4 else False)
                span_name = "caches.l3_only" if bypass else "caches.full"
            elif name == "reference.replay":
                state.replay += 1
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                if name == "reference.replay":
                    state.replay -= 1
                tracer.spans.append(Span(
                    lane=(tracer.pid, threading.get_ident()),
                    name=span_name,
                    start=start,
                    end=end,
                    lines=count_lines(args, kwargs, result) if count_lines else 0,
                    hit=bool(hit_test(args, kwargs, result)) if hit_test else False,
                ))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every function in :data:`LAYERS` with its traced wrapper.

        A function imported by name into another module is replaced there
        too, so callers that bound it at import time are traced as well.
        """
        if self._installed:
            return
        for name, module_name, attr, count_lines, hit_test in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, count_lines, hit_test)
            setattr(owner, leaf, wrapper)
            if not owner_name:
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        self._installed = True

    # -- collection ---------------------------------------------------------------

    def collect(self) -> list[Span]:
        """This process's spans plus every spilled child's spans.

        Spill files are consumed, so each child's spans are read once.
        """
        out = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as f:
                out.extend(pickle.load(f))
            path.unlink()
        return out


# -- self time ------------------------------------------------------------------


def _self_segments(spans: list[Span]) -> list[tuple[float, float, int]]:
    """Per span, the sub-intervals not covered by its children.

    Spans of one lane nest (a thread is inside one call at a time), so a
    span's children are the spans of its lane that start inside it, found
    with a stack walked in start order.
    """
    by_lane: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(spans):
        by_lane.setdefault(s.lane, []).append(i)
    children: dict[int, list[int]] = {}
    for lane_idx in by_lane.values():
        starts = sorted(lane_idx, key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for i in starts:
            s = spans[i]
            while stack and spans[stack[-1]].end <= s.start:
                stack.pop()
            if stack:
                children.setdefault(stack[-1], []).append(i)
            stack.append(i)
    segments = []
    for i, s in enumerate(spans):
        cursor = s.start
        for c in children.get(i, ()):  # in start order
            child = spans[c]
            if child.start > cursor:
                segments.append((cursor, child.start, i))
            cursor = max(cursor, child.end)
        if s.end > cursor:
            segments.append((cursor, s.end, i))
    return segments


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s`` (wall share), ``busy_s`` (own lane), calls, lines.

    ``busy_s`` is the span's duration minus its children's, in its own lane.
    ``self_s`` splits each instant among the lanes busy at that instant
    (excluding :data:`DISPATCHERS` waiting on other lanes), so the ``self_s``
    of all names sum to no more than the wall time the spans cover.  With
    one lane the two are equal.
    """
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(
            s.name, {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "lines": 0, "hits": 0}
        )
        row["calls"] += 1
        row["lines"] += s.lines
        row["hits"] += int(s.hit)
    segments = _self_segments(spans)
    for a, b, i in segments:
        out[spans[i].name]["busy_s"] += b - a
    events = []
    for a, b, i in segments:
        if b > a:
            events.append((a, 1, i))
            events.append((b, -1, i))
    events.sort(key=lambda e: (e[0], e[1]))
    active: set[int] = set()
    last = None
    for t, kind, i in events:
        if last is not None and t > last and active:
            workers = [j for j in active if spans[j].name not in DISPATCHERS]
            share = workers or list(active)
            dt = (t - last) / len(share)
            for j in share:
                out[spans[j].name]["self_s"] += dt
        if kind == 1:
            active.add(i)
        else:
            active.discard(i)
        last = t
    return out
