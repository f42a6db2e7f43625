"""solve-warm and serve-mixed: ``repro serve`` driven over HTTP.

The benchmark starts ``repro serve --world-cache DIR`` (default
``--workers 2``) with the plan's graph, and drives it from this process
with a closed loop of two keep-alive connections: each connection sends
its next request only after the previous one completed.  A job is timed
from its submit until its result is fetched; the connection polls the
job's status until it ends.

Set-up is timed from the server spawn until the warm-up jobs are
served, on a fresh world cache, several times per run.  Correctness is
checked after the window from the fetched results.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import common

#: Server starts per timed run; set-up is their median.
SETUP_REPS = 3
CONNECTIONS = 2
#: Interval between a waiting client's job-status polls.
POLL_S = 0.01
GRAPH_NAME = "bench"
#: Result fields that describe how a job ran rather than what it computed.
_RUN_FIELDS = ("job", "elapsed_s", "timings", "worlds_cached", "worlds_sampled", "warm")


class Connection:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, port: int, tracer=None):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self._tracer = tracer

    def _call(self, method: str, path: str, body=None):
        headers = {}
        if body is not None:
            body = json.dumps(body)
            headers["Content-Type"] = "application/json"
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, data

    def request(self, method: str, path: str, body=None, span: str = "http"):
        """``(status, parsed JSON)`` of one request."""
        if self._tracer is None:
            status, data = self._call(method, path, body)
        else:
            status, data = self._tracer.span(span, self._call, method, path, body)
        return status, json.loads(data) if data.startswith(b"{") else data.decode()

    def wait(self, job_id: str):
        """Poll a job until it ends; returns ``(terminal state, worker)``.

        The job's event stream would also announce the end, but the
        service checks for new events every 50 ms, which rounds every
        latency up to a 50 ms step; polling every ``POLL_S`` does not.
        Once the job has ended its stream replays at once, and its first
        event names the worker the job was routed to.
        """
        while True:
            status, body = self.request("GET", f"/v1/jobs/{job_id}", span="http.status")
            if status != 200:
                return f"status answered {status}", None
            if body["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(POLL_S)
        _, stream = self.request("GET", f"/v1/jobs/{job_id}/events", span="http.events")
        for line in stream.splitlines():
            if line.startswith("data: "):
                return body["status"], json.loads(line[6:]).get("data", {}).get("worker")
        return body["status"], None

    def close(self) -> None:
        self._conn.close()


class Server:
    """A ``repro serve`` process and its worker processes."""

    def __init__(self, workdir: str, cache_dir: str, graph_path: str, name: str):
        self._log_path = os.path.join(workdir, f"{name}.log")
        self._log = open(self._log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0",
             "--world-cache", cache_dir, "--graph", f"{graph_path}:{GRAPH_NAME}"],
            stdout=self._log, stderr=subprocess.STDOUT, env=common.child_env(workdir),
            cwd=common.ROOT,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self._log_path) as handle:
                for line in handle:
                    if "listening on http://" in line:
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not start; see {self._log_path}")

    def stop(self) -> None:
        """Drain and shut the server down; kill its process tree if that fails."""
        if self.proc.poll() is None:
            try:
                conn = Connection(self.port)
                conn.request("POST", "/v1/shutdown", {"grace_s": 5})
                conn.close()
                self.proc.wait(timeout=30)
            except (OSError, AttributeError, subprocess.TimeoutExpired, http.client.HTTPException):
                common.kill_tree(self.proc)
        self._log.close()


def closed_loop(port: int, next_item, run_item, tracer=None) -> None:
    """Run ``run_item(conn, item)`` on ``CONNECTIONS`` threads until
    ``next_item(conn)`` returns ``None``; re-raises a thread's error."""
    errors = []

    def drive() -> None:
        conn = Connection(port, tracer)
        try:
            while (item := next_item(conn)) is not None:
                run_item(conn, item)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
        finally:
            conn.close()

    threads = [threading.Thread(target=drive) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_job(conn: Connection, params: dict) -> dict:
    """Submit, await and fetch one job; returns its record."""
    record = {"params": params, "submitted": time.perf_counter()}
    status, body = conn.request("POST", "/v1/jobs", params, span="http.submit")
    return finish_job(conn, record, status, body)


def finish_job(conn: Connection, record: dict, status: int, body) -> dict:
    record.update(status=status, coalesced=isinstance(body, dict) and body.get("coalesced"))
    if status == 202:
        event, record["worker"] = conn.wait(body["job"])
        record["event"] = event
        if event == "done":
            status, result = conn.request("GET", f"/v1/jobs/{body['job']}/result",
                                          span="http.result")
            record["result"] = result if status == 200 else None
    record["latency"] = time.perf_counter() - record["submitted"]
    return record


def job_failure(record: dict):
    """Why a job record failed before any workload check, or ``None``."""
    if record["status"] != 202:
        return f"submit answered {record['status']}"
    if record["coalesced"]:
        return "job was coalesced into another"
    if record.get("event") != "done":
        return f"job ended {record.get('event')}"
    if record.get("result") is None:
        return "result not fetched"
    return None


def mark(item: dict, why) -> dict:
    """Record a check's outcome on a job or operation record."""
    item["ok"] = why is None
    if why is not None:
        item["why"] = why
    return item


def output_digest(result: dict) -> str:
    return common.digest({k: v for k, v in result.items() if k not in _RUN_FIELDS})


def scrape(port: int) -> dict:
    """``/v1/metrics`` summed over label sets, plus ``/v1/cache``."""
    conn = Connection(port)
    try:
        _, text = conn.request("GET", "/v1/metrics")
        _, cache = conn.request("GET", "/v1/cache")
    finally:
        conn.close()
    totals = Counter()
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            totals[name.split("{", 1)[0]] += float(value)
    return {"metrics": totals, "cache": cache}


def serve_jobs(port: int, jobs: list[dict]) -> list[dict]:
    """Serve a fixed job list on the closed loop; all must succeed."""
    pending = list(jobs)
    lock = threading.Lock()
    records = []

    def next_item(_conn):
        with lock:
            return pending.pop(0) if pending else None

    def run_item(conn, params):
        record = run_job(conn, params)
        with lock:
            records.append(record)

    closed_loop(port, next_item, run_item)
    for record in records:
        if record.get("event") != "done" or record.get("result") is None:
            raise RuntimeError(f"set-up job failed: {record['params']}")
    return records


def _measure(server: Server, workload, seconds: float, tracer=None) -> dict:
    before = scrape(server.port)
    start = time.perf_counter()
    records, ops = workload.window(server.port, seconds, tracer)
    elapsed = time.perf_counter() - start
    rss_mb = common.tree_peak_rss_mb(server.proc.pid)
    after = scrape(server.port)
    workload.check(records, ops)
    return {"records": records, "ops": ops, "elapsed": elapsed, "before": before,
            "after": after, "rss_mb": rss_mb}


def layer_summary(window: dict) -> dict:
    """Per-layer metrics of a window from job timings, client spans and
    ``/v1/metrics`` and ``/v1/cache`` deltas."""
    done = [r for r in window["records"] if r.get("result")]
    n = max(len(done), 1)
    before, after = window["before"], window["after"]
    delta = {name: value - before["metrics"].get(name, 0.0)
             for name, value in after["metrics"].items()}
    timing = {key: sum(r["result"]["timings"][key] for r in done) / 1000.0 / n
              for key in ("sample_ms", "label_ms", "store_read_ms", "cluster_ms", "total_ms")}
    latency = sum(r["latency"] for r in done)
    wait = sum(r["latency"] - r["result"]["elapsed_s"] for r in done)
    sampled = sum(r["result"]["timings"]["worlds_sampled"] for r in done)
    reused = sum(r["result"]["timings"]["worlds_reused"] for r in done)
    per_worker = Counter(r.get("worker") for r in done)

    def call_mean(kind):
        calls = [op["latency"] for op in window["ops"] if op["kind"] == kind]
        return statistics.mean(calls) if calls else 0.0

    return {
        "service.wait_s": wait / n,
        "service.busiest_worker_share": max(per_worker.values()) / n if done else 0.0,
        "cache.warm_share": sum(bool(r["result"].get("warm")) for r in done) / n,
        "cache.pools_derived": after["cache"]["pools_derived"] - before["cache"]["pools_derived"],
        "cache.bytes": after["cache"]["bytes"],
        "jobs.coalesced": delta.get("repro_jobs_coalesced_total", 0.0),
        "admission.rejections": delta.get("repro_admission_rejections_total", 0.0),
        "http.estimate_s": call_mean("estimate"),
        "http.patch_s": call_mean("patch"),
        "worker.sample_s": timing["sample_ms"],
        "worker.label_s": timing["label_ms"],
        "worker.store_read_s": timing["store_read_ms"],
        "worker.cluster_s": timing["cluster_ms"],
        "worker.total_s": timing["total_ms"],
        "sampling.sample_s": delta.get("repro_sampler_sample_seconds_total", 0.0) / n,
        "backends.label_s": delta.get("repro_sampler_label_seconds_total", 0.0) / n,
        "sampling.worlds": delta.get("repro_sampler_worlds_total", 0.0) / n,
        "store.hit_share": reused / (reused + sampled) if reused + sampled else 0.0,
        "store.worlds_appended": delta.get("repro_store_worlds_appended_total", 0.0) / n,
        "store.flock_wait_s": delta.get("repro_store_flock_wait_seconds_sum", 0.0) / n,
        "trace.coverage": (timing["total_ms"] * n + wait) / latency if latency else 0.0,
        "_per_worker": {str(k): v for k, v in sorted(per_worker.items(), key=str)},
        "_worlds": (sampled, reused),
    }


def result_fields(result: dict) -> dict:
    """What a job computed, in the form :func:`replay` digests it."""
    if "values" in result:
        return {"values": result["values"]}
    out = {"assignment": result["assignment"], "centers": result["centers"]}
    if "objective" in result:
        out["objective"] = result["objective"]
    return out


def _read_tsv(path: str, labels: list) -> dict:
    """A ``repro cluster`` TSV (``node<TAB>cluster<TAB>center``, nodes
    in graph order) as :func:`result_fields` of the clustering."""
    index = {str(label): i for i, label in enumerate(labels)}
    assignment, centers = [], {}
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            _node, cluster, center = line.rstrip("\n").split("\t")
            assignment.append(int(cluster))
            if int(cluster) >= 0:
                centers[int(cluster)] = index[center]
    return {"assignment": assignment, "centers": [centers[c] for c in range(len(centers))]}


def replay(jobs: list[dict], graph_path: str, cache_dir: str) -> dict:
    """Re-run jobs in-process over the server's world cache.

    The same public calls the workers make, traced: splits the workers'
    cluster time into the oracle kernels, the world-store reads and the
    drivers' own (``core``/``workloads``) self time.  MCP jobs run as
    ``repro.cli.main(["cluster", ..., "--world-cache", cache_dir])``,
    which also measures the CLI's own time and the graph file read; the
    other families call the library on a ``MonteCarloOracle``.  Returns
    per-job means and each job's :func:`result_fields` digest.
    """
    import repro.cli
    from repro import workloads
    from repro.graph.io import read_uncertain_graph
    from repro.sampling.oracle import MonteCarloOracle
    from repro.sampling.store import WorldStore
    from spans import Tracer, instrument_library

    graph = read_uncertain_graph(graph_path)
    store = WorldStore(cache_dir)
    tsv = os.path.join(os.path.dirname(cache_dir), "replay.tsv")
    tracer = Tracer()
    instrument_library(tracer)
    tracer.wrap(repro.cli, "read_uncertain_graph", "graph")
    tracer.wrap(repro.cli, "mcp_clustering", "core",
                lambda a, k, r: {"core.guesses": r.n_guesses})
    digests, wall = [], 0.0
    try:
        for index, params in enumerate(jobs):
            tracer.job = index
            samples = params["samples"]
            algorithm = params["algorithm"]
            began = time.perf_counter()
            if algorithm == "mcp":
                argv = ["cluster", graph_path, "--k", str(params["k"]),
                        "--samples", str(samples), "--seed", str(params["seed"]),
                        "--world-cache", cache_dir, "-o", tsv]
                with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
                    code = tracer.span("cli", repro.cli.main, argv)
                wall += time.perf_counter() - began
                out = _read_tsv(tsv, graph.node_labels) if code == 0 else {"exit": code}
                digests.append(common.digest(out))
                continue
            with MonteCarloOracle(graph, seed=params["seed"], store=store) as oracle:
                if algorithm == "centrality":
                    result = workloads.expected_centrality(
                        None, measure=params["measure"], oracle=oracle, samples=samples)
                else:
                    run = getattr(workloads, f"{algorithm}_clustering")
                    result = run(None, params["k"], oracle=oracle, samples=samples)
            wall += time.perf_counter() - began
            if algorithm == "centrality":
                out = {"values": result.values.tolist()}
            else:
                out = {"assignment": result.clustering.assignment.tolist(),
                       "centers": result.clustering.centers.tolist(),
                       "objective": result.objective}
            digests.append(common.digest(out))
    finally:
        tracer.restore()
    n = max(len(jobs), 1)
    self_s = tracer.self_times()
    counts = tracer.counts
    return {
        "cli.self_s": self_s.get("cli", 0.0) / n,
        "graph.read_s": self_s.get("graph", 0.0) / n,
        "oracle.connection_s": self_s.get("oracle.connection", 0.0) / n,
        "oracle.connection_calls": counts.get("oracle.connection_calls", 0) / n,
        "oracle.distances_s": self_s.get("oracle.distances", 0.0) / n,
        "oracle.distance_sources": counts.get("oracle.distance_sources", 0) / n,
        "core.self_s": self_s.get("core", 0.0) / n,
        "core.guesses": counts.get("core.guesses", 0) / n,
        "workloads.self_s": self_s.get("workloads", 0.0) / n,
        "workloads.rounds": counts.get("workloads.rounds", 0) / n,
        "store.read_s": self_s.get("store", 0.0) / n,
        "_digests": digests,
        "_coverage": sum(self_s.values()) / wall if wall else 0.0,
    }


def _p50_by_family(records: list[dict]) -> dict:
    """Median latency per job family (algorithm, and measure or kind)."""
    families = {}
    for r in records:
        params = r["params"]
        family = params["algorithm"] + "/" + params.get("measure", r.get("kind", "k"))
        families.setdefault(family, []).append(r["latency"])
    return {family: statistics.median(values) for family, values in sorted(families.items())}


def _public(values: dict) -> dict:
    return {k: v for k, v in values.items() if not k.startswith("_")}


def run_workload(workload, plan: dict, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up, measure, check and summarise one service workload.

    ``workload`` supplies ``warmup(port)``, ``window(port, seconds,
    tracer)``, ``check(records, ops)``, ``replay_jobs(records)``,
    ``pool_key(record)`` and ``outputs_digest()`` (see
    :mod:`solve_warm` and :mod:`serve_mixed`).
    """
    graph = common.build_graph(plan["graph"])
    graph_path = os.path.join(workdir, "graph.uel")
    common.write_graph(graph, graph_path)
    from repro.graph.io import read_uncertain_graph

    graph = read_uncertain_graph(graph_path)  # the content the server serves
    workload.prepare(graph)
    reps = 1 if trace else SETUP_REPS
    setups = []
    for rep in range(reps):
        cache_dir = os.path.join(workdir, f"cache-{rep}")
        started = time.perf_counter()
        server = Server(workdir, cache_dir, graph_path, f"server-{rep}")
        try:
            warm_records = workload.warmup(server.port)
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - started)
        if rep < reps - 1:
            server.stop()
    # A traced run splits its window in two halves, untraced then traced,
    # so it takes as long as an untraced run.
    window_s = seconds / 2 if trace else seconds
    try:
        plain = _measure(server, workload, window_s)
        traced = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            traced = _measure(server, workload, window_s, tracer)
            os.makedirs(common.OUT, exist_ok=True)
            tracer.write(os.path.join(common.OUT, f"spans-{plan['workload']}-{plan['seed']}.jsonl"))
    finally:
        server.stop()

    windows = [plain] + ([traced] if traced else [])
    attempted = sum(len(w["records"]) + len(w["ops"]) for w in windows)
    failed = sum(not item["ok"] for w in windows for item in w["records"] + w["ops"])
    summary = layer_summary(plain)
    ok_jobs = [r for r in plain["records"] if r["ok"]]
    ops_ok = len(ok_jobs) + sum(op["ok"] for op in plain["ops"])
    metrics = {
        "setup_s": ("s", statistics.median(setups)),
        "jobs_per_s": ("1/s", len(ok_jobs) / plain["elapsed"]),
        "peak_rss_mb": ("MB", plain["rss_mb"]),
        "ok_share": ("ratio", ops_ok / (len(plain["records"]) + len(plain["ops"]))),
    }
    for name, value in common.latency_metrics([r["latency"] for r in ok_jobs] or [0.0]).items():
        metrics[name] = ("s", value)

    seen = {workload.pool_key(r) for r in warm_records}
    repeats = 0
    for record in plain["records"]:
        key = workload.pool_key(record)
        repeats += key in seen
        seen.add(key)
    report = {
        "input": dict(workload.describe(), nodes=graph.n_nodes, edges=graph.n_edges,
                      connections=CONNECTIONS),
        "jobs": len(plain["records"]),
        "operations": len(plain["records"]) + len(plain["ops"]),
        "latency_samples": len(ok_jobs),
        "supported_percentile": common.supported_percentile(len(ok_jobs)),
        "setup_samples_s": setups,
        "p50_by_family_s": _p50_by_family(ok_jobs),
        "outputs_digest": workload.outputs_digest(),
        "failures": dict(Counter(item["why"] for w in windows
                                 for item in w["records"] + w["ops"] if not item["ok"])),
        "properties": {
            "jobs.repeat_pool_share": repeats / max(len(plain["records"]), 1),
            "jobs.worlds_sampled": summary["_worlds"][0],
            "jobs.worlds_reused": summary["_worlds"][1],
            "setup.worlds_sampled": sum(r["result"]["worlds_sampled"] for r in warm_records),
            "mutations.applied": sum(op["kind"] == "patch" and op["ok"] for op in plain["ops"]),
            "jobs.per_worker": summary["_per_worker"],
            "service.busiest_worker_share": summary["service.busiest_worker_share"],
        },
    }
    layers = {}
    if traced is not None:
        layers = _public(layer_summary(traced))
        ok_traced = sum(r["ok"] for r in traced["records"]) / traced["elapsed"]
        layers["trace.overhead"] = ok_traced / metrics["jobs_per_s"][1]
        jobs, served = workload.replay_jobs(plain["records"] + traced["records"])
        replayed = replay(jobs, graph_path, cache_dir)
        differ = sum(common.digest(result_fields(result)) != replay_digest
                     for result, replay_digest in zip(served, replayed["_digests"]))
        attempted += len(jobs)
        failed += differ
        if differ:
            report["failures"]["replayed result differs from the served one"] = differ
        layers.update(_public(replayed))
        report["replay"] = {"jobs": len(jobs), "coverage": replayed["_coverage"]}
        report["traced_jobs"] = len(traced["records"])
    return {"metrics": metrics, "layers": layers, "attempted": attempted, "failed": failed,
            "report": report}
