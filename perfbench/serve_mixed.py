"""serve-mixed: cold and warm MCP jobs beside edge PATCHes and estimates.

Two jobs in every five are cold MCP jobs at fresh seeds from the plan
(their worlds are sampled and appended to the disk store); the rest are
warm MCP jobs over a few repeated seeds whose pools set-up sampled.  A PATCH
runs before every 4th job and toggles one edge: PATCH 2j removes the
plan's edge j and PATCH 2j+1 adds it back, so the graph alternates
between its base content and one edge less, and warm jobs after a
removal are served from a pool derived from the previous revision.  An
estimate GET follows every warm job.

The PATCH and the next submit happen under one client lock, so the
client knows the graph content each job was submitted against.
"""

from __future__ import annotations

import threading
import time
from urllib.parse import urlencode

import common
import service
from plan import MIXED_PATCH_EVERY

#: Plan positions whose outputs form the run's output digest.
DIGEST_JOBS = 64
#: Base-content jobs replayed in-process by a traced run.
REPLAY_JOBS = 16
BASE = "base"


class ServeMixed:
    def __init__(self, plan: dict):
        self.plan = plan
        self.position = 0
        self.patches = 0
        self.version = BASE
        self.references: dict[tuple, str] = {}
        self.outputs: dict[int, str] = {}

    def prepare(self, graph) -> None:
        labels = graph.node_labels
        m, n = graph.n_edges, graph.n_nodes
        self.edges = []
        for pick in self.plan["mutation_picks"]:
            e = int(pick * m)
            self.edges.append((labels[graph.edge_src[e]], labels[graph.edge_dst[e]],
                               float(graph.edge_prob[e])))
        self.pairs = [(labels[int(a * n)], labels[int(b * n)])
                      for a, b in self.plan["estimate_pairs"]]

    def describe(self) -> dict:
        return {"graph": self.plan["graph"], "k": self.plan["k"], "samples": self.plan["samples"],
                "warm_seeds": len(self.plan["warm_seeds"]),
                "estimate_samples": self.plan["estimate_samples"],
                "patch_every": MIXED_PATCH_EVERY}

    def _params(self, seed: int) -> dict:
        return {"graph": service.GRAPH_NAME, "algorithm": "mcp", "k": self.plan["k"],
                "samples": self.plan["samples"], "seed": seed}

    def pool_key(self, record: dict) -> tuple:
        return (record.get("version", BASE), record["params"]["seed"], record["params"]["samples"])

    def _estimate(self, conn, i: int) -> dict:
        u, v = self.pairs[i % len(self.pairs)]
        query = urlencode({"u": u, "v": v, "samples": self.plan["estimate_samples"],
                           "seed": self.plan["estimate_seed"]})
        began = time.perf_counter()
        status, body = conn.request("GET", f"/v1/graphs/{service.GRAPH_NAME}/estimate?{query}",
                                    span="http.estimate")
        latency = time.perf_counter() - began
        estimate = body.get("estimate") if isinstance(body, dict) else None
        why = None
        if status != 200:
            why = f"estimate answered {status}"
        elif not (isinstance(estimate, float) and 0.0 <= estimate <= 1.0):
            why = "estimate outside [0, 1]"
        return service.mark({"kind": "estimate", "latency": latency}, why)

    def _patch(self, conn) -> dict:
        u, v, p = self.edges[self.patches // 2]
        removing = self.patches % 2 == 0
        op = {"op": "remove", "u": u, "v": v} if removing else {"op": "add", "u": u, "v": v, "p": p}
        began = time.perf_counter()
        status, _ = conn.request("PATCH", f"/v1/graphs/{service.GRAPH_NAME}/edges",
                                 {"ops": [op]}, span="http.patch")
        latency = time.perf_counter() - began
        self.version = f"minus-{self.patches // 2}" if removing else BASE
        self.patches += 1
        return service.mark({"kind": "patch", "latency": latency},
                            None if status == 200 else f"PATCH answered {status}")

    def warmup(self, port: int) -> list[dict]:
        records = service.serve_jobs(port, [self._params(s) for s in self.plan["warm_seeds"]])
        conn = service.Connection(port)
        try:
            if not self._estimate(conn, 0)["ok"]:
                raise RuntimeError("set-up estimate failed")
        finally:
            conn.close()
        for record in records:
            self._reference(BASE, record)
        return records

    def _reference(self, version: str, record: dict) -> bool:
        found = service.output_digest(record["result"])
        key = (version, record["params"]["seed"])
        return self.references.setdefault(key, found) == found

    def window(self, port: int, seconds: float, tracer=None) -> tuple[list, list]:
        lock = threading.Lock()
        records, ops = [], []
        deadline = time.perf_counter() + seconds
        jobs = self.plan["jobs"]

        def next_item(conn):
            with lock:
                if time.perf_counter() >= deadline:
                    return None
                i = self.position
                if i >= len(jobs):
                    raise RuntimeError("serve-mixed plan exhausted; raise MIXED_JOBS")
                self.position += 1
                if i > 0 and i % MIXED_PATCH_EVERY == 0:
                    ops.append(self._patch(conn))
                record = {"params": self._params(jobs[i]["seed"]), "index": i,
                          "kind": jobs[i]["kind"], "version": self.version,
                          "submitted": time.perf_counter()}
                status, body = conn.request("POST", "/v1/jobs", record["params"],
                                            span="http.submit")
            return record, status, body

        def run_item(conn, item):
            record, status, body = item
            if tracer is not None:
                tracer.job = record["index"]
            record = service.finish_job(conn, record, status, body)
            op = self._estimate(conn, record["index"]) if record["kind"] == "warm" else None
            with lock:
                records.append(record)
                if op is not None:
                    ops.append(op)

        service.closed_loop(port, next_item, run_item, tracer)
        return records, ops

    def check(self, records: list[dict], ops: list[dict]) -> None:
        """Cold jobs sample their worlds; warm jobs report ``warm`` and
        match the first job at the same graph content and seed."""
        for record in sorted(records, key=lambda r: r["index"]):
            result = record.get("result")
            why = service.job_failure(record)
            if why is None and record["kind"] == "cold" and result["worlds_sampled"] == 0:
                why = "cold job sampled no worlds"
            elif why is None and record["kind"] == "warm" and result["warm"] is not True:
                why = "warm job was not warm"
            elif why is None and record["kind"] == "warm" and not self._reference(
                    record["version"], record):
                why = "warm job output differs from the first at its content"
            service.mark(record, why)
            if why is None:
                self.outputs[record["index"]] = service.output_digest(result)

    def outputs_digest(self):
        if not all(i in self.outputs for i in range(DIGEST_JOBS)):
            return None
        return common.digest([self.outputs[i] for i in range(DIGEST_JOBS)])

    def replay_jobs(self, records: list[dict]) -> tuple[list, list]:
        chosen = [r for r in sorted(records, key=lambda r: r["index"])
                  if r["ok"] and r["version"] == BASE][:REPLAY_JOBS]
        return [r["params"] for r in chosen], [r["result"] for r in chosen]


def run(plan: dict, seconds: float, trace: bool, workdir: str) -> dict:
    return service.run_workload(ServeMixed(plan), plan, seconds, trace, workdir)
