"""Helpers shared by the workloads: paths, graphs, statistics, host facts."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit non-zero.

    The benchmark measures the program in its own checkout; an installed
    or stray ``repro`` elsewhere must never stand in for it.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def child_env(workdir: str) -> dict:
    """Environment for processes running the program: its source, and
    temporary files kept inside the run's work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build_graph(spec: dict):
    """Generate the plan's DBLP-like graph."""
    from repro.datasets import dblp_like

    return dblp_like(spec["authors"], seed=spec["seed"])


def write_graph(graph, path: str) -> None:
    from repro.graph.io import write_uncertain_graph

    write_uncertain_graph(graph, path)


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0 < p < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]


def supported_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if count < 20:
        return 0
    return int(100 * (1 - 10 / count))


def latency_metrics(latencies: list[float]) -> dict:
    """Median and, when the count supports it, p90 of job latencies."""
    out = {"job_p50_s": statistics.median(latencies)}
    if supported_percentile(len(latencies)) >= 90:
        out["job_p90_s"] = percentile(latencies, 90)
    return out


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def host_speed(seconds: float = 0.25) -> float:
    """Iterations per second of a fixed pure-Python loop.

    Recorded before and after each run: the host's own speed drifts by
    several percent between runs, and this shows how much.
    """
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        total = 0
        for i in range(10_000):
            total += i * i
        count += 1
    return count / (time.perf_counter() - start)


def _children(pid: int) -> list[int]:
    out = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out += [int(x) for x in handle.read().split()]
        except OSError:
            continue
    return out


def descendants(pid: int) -> list[int]:
    """``pid``'s live descendant processes."""
    out, stack = [], _children(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        try:
            stack += _children(child)
        except OSError:
            continue
    return out


def kill_tree(proc) -> None:
    """Kill a ``subprocess.Popen`` process and its descendants; reap it."""
    try:
        family = descendants(proc.pid)
    except OSError:
        family = []
    proc.kill()
    for pid in family:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sizes (VmHWM) of ``pid`` and its descendants."""
    total_kb = 0
    for current in [pid] + descendants(pid):
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0
