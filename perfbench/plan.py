"""Deterministic workload plans.

A plan is plain JSON-safe data derived only from ``(workload, seed)``:
the graph to generate, the job list, the job seeds, the k values, the
pools, the mutation edges and the estimate pairs.  The same seed gives
the same plan in every run, so parent and change do identical work; a
different seed gives a different plan.  The program under test never
sees the seed, only the generated inputs.

Each workload's graph is its stated input size and is the same at every
seed: between DBLP-like graphs of one size, job cost varies by 10-20%
with the structure, more than the bounds the benchmark enforces, while
a run averages the seed-drawn jobs over dozens of draws.

Sizes are chosen so one run of the benchmark's run length holds well
over 100 jobs (the count a p90 needs) on a 2-core host.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("solve-warm", "serve-mixed")

#: Graph sizes (``dblp_like`` author pools) and the generator seed.  The
#: node and edge counts after the largest-component restriction are
#: recorded in each run's report.
SOLVE_AUTHORS = 120
MIXED_AUTHORS = 400
GRAPH_SEED = 1

#: solve-warm: pools warmed in set-up, each with ``SOLVE_SAMPLES`` worlds.
SOLVE_POOLS = 3
SOLVE_SAMPLES = 64
#: Length of the job order; a run that gets through it starts over.
SOLVE_ORDER = 1200

#: serve-mixed: sequence length (never cycled: cold seeds must stay fresh).
MIXED_JOBS = 4000
MIXED_K = 10
MIXED_SAMPLES = 200
MIXED_WARM_SEEDS = 6
#: Two cold jobs in every five.  At exactly half, the median latency
#: falls on the boundary between the fast warm and the slow cold jobs
#: and flips between the two from run to run.
MIXED_KINDS = ("cold", "warm", "cold", "warm", "warm")
MIXED_ESTIMATE_SAMPLES = 300
#: A PATCH runs before every ``MIXED_PATCH_EVERY``-th job.
MIXED_PATCH_EVERY = 4


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed), salt, 0x5EED])


def make_plan(workload: str, seed: int) -> dict:
    """The plan of ``workload`` at workload seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(workload, seed)
    if workload == "solve-warm":
        pools = [int(s) for s in rng.choice(10**6, size=SOLVE_POOLS, replace=False)]
        jobs = []
        for pool in pools:
            k_median = rng.choice(np.arange(3, 13), size=3, replace=False)
            jobs += [{"algorithm": "kmedian", "k": int(k), "seed": pool} for k in k_median]
            jobs.append({"algorithm": "kcenter", "k": int(rng.integers(3, 13)), "seed": pool})
            jobs += [{"algorithm": "centrality", "measure": m, "seed": pool}
                     for m in ("harmonic", "degree")]
        jobs = [dict(job, samples=SOLVE_SAMPLES) for job in jobs]
        # The window walks shuffled rounds of every job: which jobs meet
        # on the two connections shapes queueing behind the routing, so
        # each run averages many orders instead of repeating one.
        order = []
        while len(order) < SOLVE_ORDER:
            round_ = [int(i) for i in rng.permutation(len(jobs))]
            if order and round_[0] == order[-1]:
                round_.reverse()
            order += round_
        return {
            "workload": workload,
            "seed": int(seed),
            "graph": {"authors": SOLVE_AUTHORS, "seed": GRAPH_SEED},
            "samples": SOLVE_SAMPLES,
            "pools": pools,
            # One k-median job per pool samples its worlds in set-up.
            "warmup": [{"algorithm": "kmedian", "k": 3, "seed": pool,
                        "samples": SOLVE_SAMPLES} for pool in pools],
            "jobs": jobs,
            "order": order,
        }
    kinds = [MIXED_KINDS[i % len(MIXED_KINDS)] for i in range(MIXED_JOBS)]
    n_cold = kinds.count("cold")
    seeds = rng.choice(10**7, size=n_cold + MIXED_WARM_SEEDS, replace=False)
    warm_seeds = [int(s) for s in seeds[:MIXED_WARM_SEEDS]]
    # Consecutive warm jobs rotate through the warm seeds, so the warm
    # jobs between two PATCHes never share parameters.
    draws = {"cold": iter(int(s) for s in seeds[MIXED_WARM_SEEDS:]),
             "warm": iter(warm_seeds * MIXED_JOBS)}
    jobs = [{"kind": kind, "seed": next(draws[kind])} for kind in kinds]
    n_patches = MIXED_JOBS // MIXED_PATCH_EVERY
    return {
        "workload": workload,
        "seed": int(seed),
        "graph": {"authors": MIXED_AUTHORS, "seed": GRAPH_SEED},
        "k": MIXED_K,
        "samples": MIXED_SAMPLES,
        "warm_seeds": warm_seeds,
        "jobs": jobs,
        # Edge picks are indices into the graph's edge list, resolved
        # once the graph is generated; PATCH 2j removes edge j's pick
        # and PATCH 2j+1 adds it back, so the graph toggles between its
        # base content and one edge less.
        "mutation_picks": [float(x) for x in rng.random((n_patches + 1) // 2)],
        "estimate_pairs": [[float(a), float(b)] for a, b in rng.random((64, 2))],
        "estimate_samples": MIXED_ESTIMATE_SAMPLES,
        "estimate_seed": int(rng.integers(0, 10**6)),
    }
