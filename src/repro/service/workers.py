"""Multi-process job execution for the clustering service.

The thread executor (:class:`~repro.service.jobs.ThreadExecutor`)
keeps every job inside the service process, where the GIL serializes
the numpy-light parts of mcp/acp — one heavy job starves the rest.
This module scales the service *horizontally*: a front-door asyncio
process keeps the HTTP listener, graph registry, admission control and
the :class:`~repro.service.jobs.JobQueue` core, and its
:class:`WorkerPool` executor dispatches jobs to N spawned **worker
processes**, each holding its own
:class:`~repro.service.cache.OracleCache` over the *same* on-disk
:class:`~repro.sampling.store.WorldStore` — the flock append protocol
makes concurrent writers safe, so two workers cold-sampling one digest
converge on a single consistent pool.

Routing (the cross-process coalescing ledger)
    Identical in-flight submissions are already coalesced by the
    queue core (one :class:`~repro.service.jobs.Job` per canonical
    key).  On top of that, the pool keeps an LRU *affinity ledger*
    mapping a job's world-pool identity ``(graph, revision, seed,
    backend, chunk_size)`` to the worker that last served it, so repeat
    jobs land on the worker whose in-memory cache is already warm —
    zero sampling, bit-identical labels — instead of warming N caches.

Cancellation
    Workers poll a per-job *cancel flag file* in the pool's spool
    directory from the ``cancel_check`` hook (and once before a job
    starts); the pool creates the file when the queue cancels the job.
    This is the cross-process analogue of the in-process
    ``threading.Event``.

Events
    Workers push ``running`` / ``progress`` / terminal events onto one
    shared queue; a drainer thread in the front door hands them to
    :meth:`JobQueue.apply <repro.service.jobs.JobQueue.apply>`, which
    the SSE endpoint then streams.

:func:`execute_clustering` is the single clustering runner shared by
both executors, so thread mode and process mode cannot drift.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.baselines.gmm import gmm_clustering
from repro.baselines.mcl import mcl_clustering
from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.exceptions import JobCancelledError
from repro.sampling.sizes import PracticalSchedule
from repro.service.jobs import TERMINAL_STATES, Job, canonical_key, job_outcome
from repro.workloads import (
    expected_centrality,
    kcenter_clustering,
    kmedian_clustering,
)

#: Upper bound on request-supplied sample budgets.  This is the
#: library's default ``max_samples`` oracle guard: letting a request
#: raise its own cap would turn one HTTP call into an arbitrarily large
#: uninterruptible sampling run on a worker.
MAX_REQUEST_SAMPLES = 1_000_000

#: Affinity-ledger capacity (distinct warm pools the router remembers).
_LEDGER_CAPACITY = 256


def _phase_breakdown(total_s: float, phases: dict | None, stats: dict | None) -> dict:
    """The per-job ``timings`` payload: wall ms per phase plus world counts.

    ``cluster_ms`` is everything the sampling phases do not account for
    (threshold guesses, greedy rounds, estimator math).  mcl/gmm jobs
    sample no worlds, so their breakdown is all ``cluster_ms``.

    Examples
    --------
    >>> out = _phase_breakdown(0.25, {"sample_s": 0.1, "label_s": 0.05,
    ...                               "store_read_s": 0.0, "chunks": 2},
    ...                        {"worlds_cached": 0, "worlds_sampled": 1024})
    >>> out["sample_ms"], out["cluster_ms"], out["worlds_sampled"]
    (100.0, 100.0, 1024)
    """
    sample_s = phases["sample_s"] if phases else 0.0
    label_s = phases["label_s"] if phases else 0.0
    store_read_s = phases["store_read_s"] if phases else 0.0
    cluster_s = max(total_s - sample_s - label_s - store_read_s, 0.0)
    return {
        "total_ms": round(total_s * 1000.0, 3),
        "sample_ms": round(sample_s * 1000.0, 3),
        "label_ms": round(label_s * 1000.0, 3),
        "store_read_ms": round(store_read_s * 1000.0, 3),
        "cluster_ms": round(cluster_s * 1000.0, 3),
        "worlds_sampled": int(stats["worlds_sampled"]) if stats else 0,
        "worlds_reused": int(stats["worlds_cached"]) if stats else 0,
    }


def execute_clustering(job_id: str, params: dict, graph, ancestors, cache, *,
                       sampling_workers=1, cancel_check=None, progress=None) -> dict:
    """Run one normalized clustering job and return its result payload.

    The single runner behind both execution models: the in-process
    thread queue and the spawned worker processes call exactly this
    function, so results (including the warm/cold cache accounting and
    the bit-identical assignment guarantees) cannot differ between
    them.

    Parameters
    ----------
    job_id:
        Recorded in the payload (``payload["job"]``).
    params:
        Normalized job parameters (see ``normalize_job_params``).
    graph, ancestors:
        The resolved graph and its mutation lineage (for oracle-cache
        pool derivation).
    cache:
        The executing side's :class:`~repro.service.cache.OracleCache`.
    sampling_workers:
        Sampling parallelism passed to the leased oracle.
    cancel_check, progress:
        Threaded through to the algorithm driver (mcp/acp, the
        k-median/k-center/centrality workloads); ``progress`` receives
        one JSON-safe dict per threshold guess (mcp/acp), greedy round
        (kmedian/kcenter) or sampling round (centrality).
    """
    algorithm = params["algorithm"]
    started = time.perf_counter()
    if cancel_check is not None:
        cancel_check()
    payload = {"job": job_id, "algorithm": algorithm, "graph": params["graph"]}
    with telemetry.get_tracer().span("job", job=job_id, algorithm=algorithm,
                                     graph=params["graph"]):
        fields, phases, stats = _execute_algorithm(
            algorithm, params, graph, ancestors, cache,
            sampling_workers=sampling_workers,
            cancel_check=cancel_check, progress=progress,
        )
        payload.update(fields)
    if cancel_check is not None:
        cancel_check()
    total_s = time.perf_counter() - started
    payload["elapsed_s"] = total_s
    payload["timings"] = _phase_breakdown(total_s, phases, stats)
    return payload


def _execute_algorithm(algorithm: str, params: dict, graph, ancestors, cache, *,
                       sampling_workers, cancel_check, progress) -> tuple:
    """The per-algorithm body of :func:`execute_clustering`.

    Returns ``(fields, phases, stats)``: the algorithm's payload fields,
    plus this job's oracle phase timings and world accounting (both
    ``None`` for mcl/gmm, which sample no worlds) that the caller folds
    into ``timings``.  Every pool-backed algorithm shares one oracle
    lease and the ``seed``/``samples_used``/world-accounting fields;
    only the driver call and its own fields differ.
    """
    phases = stats = clustering = None
    hooks = {"cancel_check": cancel_check, "progress": progress}
    if algorithm == "mcl":
        result = mcl_clustering(graph, inflation=params["inflation"])
        clustering = result.clustering
        fields = {"inflation": params["inflation"], "n_clusters": result.n_clusters}
    elif algorithm == "gmm":
        clustering = gmm_clustering(graph, params["k"], seed=params["seed"])
        fields = {"k": params["k"], "seed": params["seed"]}
    else:
        with cache.lease(
            graph,
            seed=params["seed"],
            chunk_size=params["chunk_size"],
            max_samples=MAX_REQUEST_SAMPLES,
            backend=params["backend"],
            workers=sampling_workers,
            ancestors=ancestors,
        ) as oracle:
            if algorithm in ("mcp", "acp"):
                run = mcp_clustering if algorithm == "mcp" else acp_clustering
                result = run(
                    None, params["k"], oracle=oracle, seed=params["seed"],
                    depth=params["depth"],
                    sample_schedule=PracticalSchedule(max_samples=params["samples"]),
                    **hooks,
                )
                clustering = result.clustering
                fields = {"k": params["k"], "q_final": result.q_final,
                          "n_guesses": result.n_guesses}
                if algorithm == "mcp":
                    fields.update(min_prob=result.min_prob_estimate,
                                  covers_all=result.covers_all)
                else:
                    fields.update(avg_prob=result.avg_prob_estimate,
                                  phi_best=result.phi_best)
            elif algorithm in ("kmedian", "kcenter"):
                run = kmedian_clustering if algorithm == "kmedian" else kcenter_clustering
                result = run(None, params["k"], oracle=oracle,
                             samples=params["samples"], **hooks)
                clustering = result.clustering
                fields = {"k": params["k"], "objective": result.objective,
                          "n_rounds": result.n_rounds}
            else:  # centrality
                result = expected_centrality(
                    None, measure=params["measure"], oracle=oracle,
                    samples=params["samples"], tol=params["tol"], **hooks,
                )
                fields = {
                    "measure": params["measure"],
                    "tol": params["tol"],
                    "values": np.asarray(result.values, dtype=float).tolist(),
                    "half_width": result.half_width,
                    "converged": result.converged,
                    "n_rounds": result.n_rounds,
                }
            stats = oracle.cache_stats
            phases = oracle.phase_timings
        fields.update(
            seed=params["seed"],
            samples_used=result.samples_used,
            worlds_cached=stats["worlds_cached"],
            worlds_sampled=stats["worlds_sampled"],
            warm=stats["worlds_sampled"] == 0 and stats["worlds_cached"] > 0,
            pool_digest=oracle.pool_digest,
        )
    if clustering is not None:
        fields["assignment"] = np.asarray(clustering.assignment).astype(int).tolist()
        fields["centers"] = np.asarray(clustering.centers).astype(int).tolist()
    return fields, phases, stats


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable startup configuration of one worker process."""

    world_cache: str | None
    cache_bytes: int
    sampling_workers: object
    spool_dir: str
    #: Span log shared by the whole fleet (append-only JSON lines);
    #: ``None`` leaves tracing disabled in the worker.
    trace_log: str | None = None


def pool_affinity_key(job: Job) -> str:
    """The world-pool identity a job's oracle lease resolves to.

    Jobs with equal keys reuse one sampled pool, so the router sends
    them to the same worker.  The key carries the coalescing key's
    suffix (the graph-registry revision), so mutated graphs get fresh
    affinity.  mcl/gmm jobs sample no worlds; their key still routes
    repeats of the same graph together, which is harmless.
    """
    params = job.params
    identity = {
        "graph": params.get("graph"),
        "seed": params.get("seed"),
        "backend": params.get("backend"),
        "chunk_size": params.get("chunk_size"),
    }
    # job.key is canonical_key(params) plus "#<suffix>" when submitted
    # with one.
    return canonical_key(identity) + job.key[len(canonical_key(params)):]


def _worker_main(worker_id: int, tasks, events, config: WorkerConfig) -> None:
    """Entry point of one spawned worker process.

    Builds the worker's own WorldStore + OracleCache (sharing the
    on-disk cache directory with every sibling — the flock append
    protocol makes the concurrent writes safe), then executes tasks
    ``(job_id, params, graph, ancestors, trace_id)`` off ``tasks``
    until the ``None`` sentinel, reporting lifecycle and progress
    events on ``events`` as ``(job_id, kind, data)``.  A job whose
    cancel flag already exists when it is dequeued ends ``cancelled``
    without a ``running`` event, as under the thread executor.

    Telemetry: the worker's own registry accumulates every counter the
    instrumented layers touch; after each job the movement since the
    last ship is sent as a ``(None, "metrics", delta)`` event *before*
    the job's terminal event, so by the time the front door marks a job
    terminal the fleet-level ``GET /v1/metrics`` already includes the
    job's contribution.
    """
    # Imported here (not at module top) only for clarity of what the
    # worker side actually needs; spawn re-imports this module anyway.
    from repro.sampling.store import WorldStore
    from repro.service.cache import OracleCache

    if config.trace_log:
        telemetry.get_tracer().configure(config.trace_log)
    store = WorldStore(config.world_cache)
    cache = OracleCache(store, max_bytes=config.cache_bytes)
    cache.attach_metrics()
    registry = telemetry.get_registry()
    registry.take_delta()  # baseline: don't re-ship pre-fork/import counts

    def run(job_id, params, graph, ancestors, trace_id) -> tuple[str, dict]:
        cancel_path = os.path.join(config.spool_dir, f"{job_id}.cancel")
        if os.path.exists(cancel_path):
            return "cancelled", {"error": "cancelled before start"}

        def cancel_check() -> None:
            if os.path.exists(cancel_path):
                raise JobCancelledError(f"job {job_id} cancelled")

        def progress(data) -> None:
            events.put((job_id, "progress", data))

        events.put((job_id, "running", {"worker": worker_id}))
        kind, data = job_outcome(job_id, trace_id, lambda: execute_clustering(
            job_id, params, graph, ancestors, cache,
            sampling_workers=config.sampling_workers,
            cancel_check=cancel_check, progress=progress,
        ))
        delta = registry.take_delta()
        if delta["counters"] or delta["histograms"]:
            events.put((None, "metrics", delta))
        if kind == "done":
            data["worker"] = worker_id
        return kind, data

    events.put((None, "ready", {"worker": worker_id}))
    while True:
        task = tasks.get()
        if task is None:
            break
        kind, data = run(*task)
        events.put((task[0], kind, data))


class WorkerPool:
    """Executor dispatching jobs to spawned worker processes.

    Jobs are routed per worker through the affinity ledger (see the
    module docstring); each worker has a private task queue so affinity
    is preserved even under contention.  The queued event of every job
    names its ``worker``.

    A worker that dies hard (segfault, OOM kill) takes its queued jobs
    with it — they stay ``running``/``queued`` until shutdown cancels
    them.  The grace-period drain in ``POST /v1/shutdown`` bounds the
    damage; supervising and respawning workers is out of scope here.

    Parameters
    ----------
    workers:
        Worker *process* count (>= 1).
    world_cache:
        Shared on-disk world-store directory (or ``None`` for
        per-worker in-memory stores — pools are then warm only via the
        affinity ledger, never shared across workers).
    cache_bytes:
        Per-worker oracle-cache budget.
    sampling_workers:
        Sampling parallelism inside each worker's oracles.
    trace_log:
        Span-log path handed to every worker process (``None`` disables
        tracing in the workers).
    """

    def __init__(self, *, workers: int = 2, world_cache=None,
                 cache_bytes: int = 256 << 20, sampling_workers=1,
                 trace_log: str | None = None):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)
        self._world_cache = None if world_cache is None else str(world_cache)
        self._cache_bytes = int(cache_bytes)
        self._sampling_workers = sampling_workers
        self._trace_log = None if trace_log is None else str(trace_log)
        self._lock = threading.Lock()
        self._ledger: OrderedDict[str, int] = OrderedDict()
        self._load = [0] * self.workers  # outstanding jobs per worker
        self._assigned: dict[str, int] = {}  # job id -> worker id

    def start(self, apply) -> None:
        """Spawn the worker processes and the event drainer."""
        import multiprocessing as mp

        self._apply = apply
        self._spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        ctx = mp.get_context("spawn")
        config = WorkerConfig(
            world_cache=self._world_cache,
            cache_bytes=self._cache_bytes,
            sampling_workers=self._sampling_workers,
            spool_dir=self._spool_dir,
            trace_log=self._trace_log,
        )
        self._events = ctx.Queue()
        self._tasks = [ctx.Queue() for _ in range(self.workers)]
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(worker_id, self._tasks[worker_id], self._events, config),
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            for worker_id in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        self._drainer = threading.Thread(
            target=self._drain_events, name="repro-job-events", daemon=True
        )
        self._drainer.start()

    def dispatch(self, job: Job) -> dict:
        """Send ``job`` to the worker the affinity ledger selects."""
        graph, ancestors = job.context
        with self._lock:
            worker_id = self._route_locked(job)
            self._load[worker_id] += 1
            self._assigned[job.id] = worker_id
        self._tasks[worker_id].put(
            (job.id, job.params, graph, ancestors, job.trace_id or job.id)
        )
        return {"worker": worker_id}

    def _route_locked(self, job: Job) -> int:
        """Pick a worker: ledger affinity first, least-loaded otherwise."""
        affinity = pool_affinity_key(job)
        worker_id = self._ledger.get(affinity)
        if worker_id is None:
            worker_id = min(range(self.workers), key=lambda w: self._load[w])
        self._ledger[affinity] = worker_id
        self._ledger.move_to_end(affinity)
        while len(self._ledger) > _LEDGER_CAPACITY:
            self._ledger.popitem(last=False)
        return worker_id

    def cancel(self, job: Job) -> None:
        """Drop the cancel flag file the executing worker polls."""
        try:
            with open(self._flag_path(job.id), "w") as flag:
                flag.write("cancelled\n")
        except OSError:  # pragma: no cover - spool dir removed mid-shutdown
            pass

    def _flag_path(self, job_id: str) -> str:
        return os.path.join(self._spool_dir, f"{job_id}.cancel")

    def shutdown(self, *, grace_s: float = 5.0) -> None:
        """Stop the workers, then the drainer.

        Workers get a ``None`` sentinel; those that fail to exit within
        ``grace_s`` seconds are terminated.
        """
        for tasks in self._tasks:
            tasks.put(None)
        deadline = time.monotonic() + max(grace_s, 0.0)
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._events.put(None)  # stop the drainer
        self._drainer.join(timeout=5)
        for queue in (*self._tasks, self._events):
            queue.close()
            queue.cancel_join_thread()
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    def _drain_events(self) -> None:
        while True:
            try:
                event = self._events.get()
            except (EOFError, OSError):  # pragma: no cover - queue closed
                return
            if event is None:
                return
            job_id, kind, data = event
            if job_id is None:  # pool-level events ("ready", "metrics")
                if kind == "metrics":
                    # A worker shipped its counter/histogram movement;
                    # fold it into the front door's registry so
                    # GET /v1/metrics reflects the whole fleet.
                    telemetry.get_registry().merge_delta(data)
                continue
            if kind in TERMINAL_STATES:
                self._release(job_id)
            self._apply(job_id, kind, data)

    def _release(self, job_id: str) -> None:
        """Free the routing slot and cancel flag of a job its worker ended."""
        with self._lock:
            worker_id = self._assigned.pop(job_id, None)
            if worker_id is not None:
                self._load[worker_id] -= 1
        try:
            os.unlink(self._flag_path(job_id))
        except FileNotFoundError:
            pass
