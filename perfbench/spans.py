"""In-process span tracing from outside the program.

:class:`Tracer` replaces public functions of the program's modules with
wrappers that record one span per call: layer, start, end, the span
that caused it, and the job it belongs to.  Spans stay in memory and
are written out once, at the end of the run.  A layer's self time is
its spans' durations minus the time their child spans cover.  Each
thread keeps its own span stack, so a span's children ran on its
thread, nested and never overlapping.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (layer, start, end, parent, job)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []

    @property
    def job(self):
        """The job the calling thread's spans belong to."""
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, value) -> None:
        self._local.job = value

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``; returns its result."""
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (layer, start, end, parent, self.job)

    def wrap(self, owner, name: str, layer: str, count=None) -> None:
        """Trace every call of ``owner.name``.  ``count(args, kwargs,
        result)`` returns ``{counter: amount}`` to add per call."""
        original = owner.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.span(layer, original, *args, **kwargs)
            if count is not None:
                with tracer._lock:
                    for key, amount in count(args, kwargs, result).items():
                        tracer.counts[key] += amount
            return result

        setattr(owner, name, traced)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Total self seconds per layer."""
        child_time = defaultdict(float)
        for layer, start, end, parent, _job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (layer, start, end, _parent, _job) in enumerate(self.spans):
            out[layer] += end - start - child_time[index]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, start, end, parent, job) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "layer": layer, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")


def instrument_library(tracer: Tracer) -> None:
    """Wrap the library layers below the CLI and the service.

    ``sampling`` is the chunk draw (minus its ``backends`` labelling
    child), ``oracle.connection``/``oracle.distances`` the two query
    kernels, ``store`` the world-store reads, and ``workloads`` the
    k-median/k-center/centrality drivers.  ``core`` (mcp) is wrapped by
    the caller, at the name it calls it by.
    """
    from repro import workloads
    from repro.sampling import backends
    from repro.sampling.oracle import MonteCarloOracle
    from repro.sampling.parallel import ParallelSampler
    from repro.sampling.store import WorldStore

    tracer.wrap(ParallelSampler, "sample_chunk_packed", "sampling",
                lambda a, k, r: {"sampling.worlds": a[3]})
    for backend in (backends.BitParallelWorldBackend, backends.ScipyWorldBackend,
                    backends.UnionFindWorldBackend):
        for name in ("component_labels", "component_labels_packed"):
            if name in backend.__dict__:
                tracer.wrap(backend, name, "backends")
    tracer.wrap(MonteCarloOracle, "connection_to_all", "oracle.connection",
                lambda a, k, r: {"oracle.connection_calls": 1})
    tracer.wrap(MonteCarloOracle, "expected_distances", "oracle.distances",
                lambda a, k, r: {"oracle.distance_sources": r.shape[0]})
    tracer.wrap(WorldStore, "read", "store")
    tracer.wrap(WorldStore, "read_labels", "store")
    for name in ("kmedian_clustering", "kcenter_clustering", "expected_centrality"):
        tracer.wrap(workloads, name, "workloads",
                    lambda a, k, r: {"workloads.rounds": r.n_rounds})
