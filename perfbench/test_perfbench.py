"""Pins of the benchmark: plans are deterministic from the workload seed
and never hold two identical jobs where the service would coalesce them;
the per-layer metrics a traced run prints are the ones BENCHMARK.json
declares."""

import json
import os

import pytest
from plan import MIXED_PATCH_EVERY, WORKLOADS, make_plan
from run import LAYER_UNITS

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_plan(workload):
    assert json.dumps(make_plan(workload, 7)) == json.dumps(make_plan(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_different_plan(workload):
    a, b = make_plan(workload, 7), make_plan(workload, 8)
    assert a["jobs"] != b["jobs"]


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        make_plan("no-such-workload", 0)


def test_solve_warm_jobs_are_distinct_and_use_warmed_pools():
    plan = make_plan("solve-warm", 3)
    keys = [json.dumps(job, sort_keys=True) for job in plan["jobs"]]
    assert len(set(keys)) == len(keys)
    assert {job["seed"] for job in plan["jobs"]} == {job["seed"] for job in plan["warmup"]}


def test_serve_mixed_never_repeats_a_job_between_patches():
    plan = make_plan("serve-mixed", 3)
    jobs = plan["jobs"]
    cold = [job["seed"] for job in jobs if job["kind"] == "cold"]
    assert len(set(cold)) == len(cold)
    assert not set(cold) & set(plan["warm_seeds"])
    for start in range(0, len(jobs), MIXED_PATCH_EVERY):
        seeds = [job["seed"] for job in jobs[start:start + MIXED_PATCH_EVERY]]
        assert len(set(seeds)) == len(seeds)


def test_layer_metrics_match_benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
