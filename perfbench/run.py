"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that attributes job time to the program's layers.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's report (host facts, input sizes, sample counts, output
digest and workload properties).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil

import common
from plan import WORKLOADS, make_plan

#: Every per-layer metric, with its unit.  A traced run reports all of
#: them; a layer a workload bypasses reads 0.
LAYER_UNITS = {
    "cli.self_s": "s/job",
    "graph.read_s": "s/job",
    "sampling.sample_s": "s/job",
    "sampling.worlds": "count/job",
    "backends.label_s": "s/job",
    "oracle.connection_s": "s/job",
    "oracle.connection_calls": "count/job",
    "oracle.distances_s": "s/job",
    "oracle.distance_sources": "count/job",
    "core.self_s": "s/job",
    "core.guesses": "count/job",
    "workloads.self_s": "s/job",
    "workloads.rounds": "count/job",
    "store.read_s": "s/job",
    "store.hit_share": "ratio",
    "store.worlds_appended": "count/job",
    "store.flock_wait_s": "s/job",
    "service.wait_s": "s/job",
    "service.busiest_worker_share": "ratio",
    "cache.warm_share": "ratio",
    "cache.pools_derived": "count",
    "cache.bytes": "bytes",
    "jobs.coalesced": "count",
    "admission.rejections": "count",
    "http.estimate_s": "s/call",
    "http.patch_s": "s/call",
    "worker.sample_s": "s/job",
    "worker.label_s": "s/job",
    "worker.store_read_s": "s/job",
    "worker.cluster_s": "s/job",
    "worker.total_s": "s/job",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()

    workload = importlib.import_module(args.workload.replace("-", "_"))
    plan = make_plan(args.workload, args.seed)
    workdir = os.path.join(common.WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    speed_before = common.host_speed()
    try:
        result = workload.run(plan, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = dict(common.host_facts(), loop_rate_before=speed_before,
                loop_rate_after=common.host_speed())

    report = dict(result["report"], workload=args.workload, workload_seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host)
    if args.trace:
        layers = {name: 0.0 for name in LAYER_UNITS}
        layers.update({k: v for k, v in result["layers"].items() if k in LAYER_UNITS})
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (unit, value) in result["metrics"].items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
