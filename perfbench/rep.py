"""One repetition of a workload, in a fresh process so that its peak
resident set belongs to this repetition alone.

Reads a JSON request on stdin:

    {"workload": {...}, "seed": n, "trace": bool, "setups": k, "expected": ...}

and prints one JSON line: the setup times, the run's makespan, CPU
seconds and peak RSS, the LoadLog record count, whether the output
matched the serial reference and, when traced, the per-layer metrics.
After the measured run it starts and stops k more clusters, timing
only their setup.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def pin_boss() -> set[int]:
    """Pin this process, the boss, to one CPU and return all the CPUs it
    was allowed, for the TCP worker processes.

    The boss's threads share one interpreter lock, so one CPU costs it
    no parallelism.  Left to the scheduler, the lock's hand-offs between
    the boss thread and worker or reader threads sometimes cross CPUs
    and sometimes not, which makes the makespan bimodal: 4.5-5.4 s
    pinned against 7.7-9.7 s unpinned for queens-fine-inproc, measured
    alternately on a 2-CPU machine.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


def run_rep(request: dict) -> dict:
    from parqueue import ParqueueError

    import workloads
    from tracer import ModulePatch, Tracer

    spec = workloads.Workload(**request["workload"])
    app = workloads.make_app(spec)
    args = workloads.app_args(spec, request["seed"])
    registry = app.registry()
    tracer = Tracer("boss") if request["trace"] else None
    result: dict = {"error": None}
    worker_cpus = pin_boss()
    with contextlib.ExitStack() as cleanup:
        if tracer:
            tracer.wrap_handlers(registry)
            cleanup.enter_context(ModulePatch(tracer))
        t0 = time.perf_counter()
        cluster = workloads.Cluster(spec, registry, tracer, worker_cpus)
        setup_s = [time.perf_counter() - t0]
        cleanup.callback(cluster.stop)
        run = app.run
        if tracer:
            proxy = tracer.instrument_boss(cluster.boss)
            run = tracer.span("apps.run", "apps", app.run)
            tracer.reset()  # leave out the setup's handshake frames
        try:
            cpu0 = cluster.cpu_s()
            t0 = time.perf_counter()
            output = run(cluster.boss, *args)
            t1 = time.perf_counter()
        except ParqueueError as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        else:
            result["cpu_s"] = cluster.cpu_s() - cpu0
            result["makespan_s"] = t1 - t0
            result["peak_rss_mb"] = cluster.peak_rss_mb()
            result["loadlog_records"] = len(cluster.boss.samples)
            result["jobs_completed"] = workloads.jobs_completed(cluster.boss.samples)
            result["error"] = workloads.check_output(spec, output, request["expected"])
            if tracer:
                boss_dumps, boss_frames = tracer.dump(), proxy.snapshot()
    if tracer and result["error"] is None:
        from layers import layer_metrics

        dumps = boss_dumps + [d for worker in cluster.worker_traces for d in worker]
        result["layers"] = layer_metrics(dumps, boss_frames, (t0, t1), spec.workers)
    for _ in range(request["setups"]):
        t0 = time.perf_counter()
        extra = workloads.Cluster(spec, workloads.make_app(spec).registry(), None, worker_cpus)
        setup_s.append(time.perf_counter() - t0)
        extra.stop()
    result["setup_s"] = setup_s
    return result


def main() -> int:
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_rep(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
