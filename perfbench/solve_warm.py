"""solve-warm: k-median, k-center and centrality jobs over warm pools.

Set-up warms a few world pools on a small DBLP-like graph, one k-median
job per pool served on the same two-connection closed loop as the
window.  The window then walks shuffled rounds of the plan's jobs: every
job must sample no worlds, and repeats of a job must return identical
results.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter

import common
import service


def _params(job: dict) -> dict:
    params = {"graph": service.GRAPH_NAME, "algorithm": job["algorithm"], "seed": job["seed"],
              "samples": job["samples"]}
    if job["algorithm"] == "centrality":
        params["measure"] = job["measure"]
    else:
        params["k"] = job["k"]
    return params


def _key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


class SolveWarm:
    def __init__(self, plan: dict):
        self.plan = plan
        self.jobs = [_params(job) for job in plan["jobs"]]
        self.position = 0
        self.references: dict[str, str] = {}

    def prepare(self, graph) -> None:
        pass

    def describe(self) -> dict:
        return {"graph": self.plan["graph"], "samples": self.plan["samples"],
                "pools": len(self.plan["pools"]), "distinct_jobs": len(self.jobs)}

    def warmup(self, port: int) -> list[dict]:
        return service.serve_jobs(port, [_params(job) for job in self.plan["warmup"]])

    def pool_key(self, record: dict) -> tuple:
        return (record["params"]["seed"], record["params"]["samples"])

    def window(self, port: int, seconds: float, tracer=None) -> tuple[list, list]:
        """Walk the plan's job order until ``seconds`` pass.  A job whose
        twin is still in flight is skipped: the service would coalesce
        the two into one."""
        lock = threading.Lock()
        inflight = Counter()
        records = []
        deadline = time.perf_counter() + seconds
        order = self.plan["order"]

        def next_item(_conn):
            with lock:
                if time.perf_counter() >= deadline:
                    return None
                while inflight[order[self.position % len(order)]]:
                    self.position += 1
                index = order[self.position % len(order)]
                self.position += 1
                inflight[index] += 1
                return index

        def run_item(conn, index):
            if tracer is not None:
                tracer.job = index
            record = service.run_job(conn, self.jobs[index])
            with lock:
                inflight[index] -= 1
                records.append(record)

        service.closed_loop(port, next_item, run_item, tracer)
        return records, []

    def check(self, records: list[dict], ops: list[dict]) -> None:
        """Done, not coalesced, no worlds sampled, same output as every
        other run of the same job."""
        for record in records:
            result = record.get("result")
            why = service.job_failure(record)
            if why is None and result["worlds_sampled"] != 0:
                why = "warm job sampled worlds"
            if why is None:
                found = service.output_digest(result)
                if self.references.setdefault(_key(record["params"]), found) != found:
                    why = "job output differs from an earlier run of the same job"
            service.mark(record, why)

    def outputs_digest(self):
        keys = [_key(params) for params in self.jobs]
        if not set(keys) <= set(self.references):
            return None
        return common.digest([self.references[key] for key in keys])

    def replay_jobs(self, records: list[dict]) -> tuple[list, list]:
        """Each distinct job once, with a served result to compare."""
        served = {_key(r["params"]): r["result"] for r in records if r["ok"]}
        jobs = [params for params in self.jobs if _key(params) in served]
        return jobs, [served[_key(params)] for params in jobs]


def run(plan: dict, seconds: float, trace: bool, workdir: str) -> dict:
    return service.run_workload(SolveWarm(plan), plan, seconds, trace, workdir)
