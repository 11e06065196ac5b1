"""Load sampling, the sleep-job overhead benchmark, and scaling reports.

The boss records a load sample after every supervision state change;
the resulting timeline can be written as CSV and replayed to audit the
scheduler.  The benchmark helpers quantify per-job queue overhead with
sleep jobs, and time queens runs on local worker processes for the
speedup/efficiency rows of a run at several worker counts.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import codec
from .wire import pick_free_port


@dataclass(frozen=True)
class LoadSample:
    t: float            # seconds since supervision start
    active_workers: int  # jobs assigned but not yet returned
    queued_jobs: int     # jobs waiting in the global queue


class LoadLog:
    """Columnar store of load samples; cheap enough to append on every
    boss event even in million-job runs.  A sample takes 16 bytes: the
    time as a double and both counts as unsigned 32-bit integers."""

    def __init__(self):
        self._t = array("d")
        # both counts side by side: with a third array a queens run peaked 0.6 MB higher
        self._counts = array("I")

    def record(self, t: float, active_workers: int, queued_jobs: int) -> None:
        self._t.append(t)
        self._counts.append(active_workers)
        self._counts.append(queued_jobs)

    def clear(self) -> None:
        del self._t[:], self._counts[:]

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i: int) -> LoadSample:
        return LoadSample(self._t[i], self._counts[2 * i], self._counts[2 * i + 1])

    def __iter__(self) -> Iterator[LoadSample]:
        return map(LoadSample, self._t, self._counts[0::2], self._counts[1::2])


def emit_load_csv(samples: Iterable[LoadSample], path) -> None:
    """Write samples as CSV: header t_sec,active_workers,queued_jobs
    then one row per sample."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_sec", "active_workers", "queued_jobs"])
        for sample in samples:
            writer.writerow([f"{sample.t:.6f}", sample.active_workers, sample.queued_jobs])


SLEEP_JOB = 1
TIMED_RUNS = 3  # bench_overhead reports the fastest of this many runs


@dataclass(frozen=True)
class OverheadReport:
    """One row of the sleep-job overhead experiment.

    ideal is ceil(jobs_n / workers) * sleep_s: the floor a perfect
    scheduler could reach with every worker sleeping back to back, in
    whole waves (100 jobs on 8 workers take 13, not 12.5); everything
    above it is queue overhead.
    """

    jobs_n: int
    payload_doubles: int
    workers: int
    sleep_s: float
    runtime_t: float

    @property
    def ideal(self) -> float:
        return math.ceil(self.jobs_n / self.workers) * self.sleep_s

    @property
    def overhead(self) -> float:
        return self.runtime_t - self.ideal

    @property
    def per_job_overhead(self) -> float:
        return self.overhead / self.jobs_n


def bench_overhead(jobs: int, payload_doubles: int, sleep_s: float, workers: int) -> OverheadReport:
    """Run *jobs* sleep jobs over an in-process cluster and report the
    runtime against the ideal.

    With payload_doubles > 0 every job carries that many floats, and the
    handler decodes and re-encodes them so the payload is serialized,
    deserialized and sent both ways, mirroring real data-carrying jobs.

    The queue is timed TIMED_RUNS times on one cluster and the fastest
    run is reported, as timeit.repeat advises: other processes on the
    host can only add time to a run, and on a shared machine a stall of
    a few milliseconds can triple the per-job overhead of a short run.
    """
    if jobs < 1:
        raise ValueError("at least one job is required")
    if workers < 1:
        raise ValueError("at least one worker is required")
    if payload_doubles < 0 or sleep_s < 0:
        raise ValueError("payload_doubles and sleep_s must not be negative")
    from .runtime import HandlerRegistry, InprocConfig, Job, start

    def sleep_handler(job, ctx):
        if job.data:
            values = codec.decode(job.data)
            time.sleep(sleep_s)
            return codec.encode(values)
        time.sleep(sleep_s)
        return b""

    registry = HandlerRegistry(worker={SLEEP_JOB: sleep_handler})
    payload = codec.encode([float(i) for i in range(payload_doubles)]) if payload_doubles else b""
    with start(InprocConfig(workers), registry) as boss:
        # one untimed round wakes every worker before measurement starts
        boss.run_jobs([Job(SLEEP_JOB, payload) for _ in range(workers)])
        runtime_t = math.inf
        for _ in range(TIMED_RUNS):
            queue = [Job(SLEEP_JOB, payload) for _ in range(jobs)]
            t0 = time.perf_counter()
            boss.run_jobs(queue)
            runtime_t = min(runtime_t, time.perf_counter() - t0)
    return OverheadReport(jobs, payload_doubles, workers, sleep_s, runtime_t)


@dataclass(frozen=True)
class ScalingReport:
    """Scaling figures for one worker count, relative to the 1-worker
    run of the same workload.  p counts the boss as a node."""

    workers: int
    runtime_t: float
    baseline_t: float

    @property
    def p(self) -> int:
        return self.workers + 1

    @property
    def worker_usage(self) -> float:
        return self.workers * self.runtime_t

    @property
    def total_usage(self) -> float:
        return self.p * self.runtime_t

    @property
    def speedup(self) -> float:
        return self.baseline_t / self.runtime_t

    @property
    def efficiency(self) -> float:
        return self.speedup / self.p


def format_overhead_table(reports: Iterable[OverheadReport]) -> str:
    header = f"{'Jobs n':>8}  {'Doubles':>8}  {'Workers':>8}  {'Runtime (s)':>12}  {'Ideal (s)':>10}  {'Overhead (s)':>13}  {'Per-job (s)':>12}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.jobs_n:>8}  {r.payload_doubles:>8}  {r.workers:>8}  "
            f"{r.runtime_t:>12.4f}  {r.ideal:>10.4f}  {r.overhead:>13.4f}  {r.per_job_overhead:>12.6f}"
        )
    return "\n".join(lines)


def format_scaling_table(reports: Iterable[ScalingReport]) -> str:
    header = f"{'Nodes p':>8}  {'Runtime (s)':>12}  {'Worker usage':>13}  {'Total usage':>12}  {'Speedup':>8}  {'Efficiency':>10}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.p:>8}  {r.runtime_t:>12.4f}  {r.worker_usage:>13.4f}  "
            f"{r.total_usage:>12.4f}  {r.speedup:>8.2f}  {r.efficiency:>10.2f}"
        )
    return "\n".join(lines)


def spawn_local_workers(app: str, connect: str, count: int) -> list[subprocess.Popen]:
    """Start *count* `parqueue worker` processes for the named
    application, each connecting to *connect* and importing this copy of
    the package.  Returns the process handles; if one cannot start, the
    ones already started are killed before the error propagates."""
    package_root = str(Path(__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    command = [sys.executable, "-m", "parqueue.cli", "worker", app, "--connect", connect]
    procs = []
    try:
        for _ in range(count):
            procs.append(subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL))
    except BaseException:
        _reap(procs, timeout=0)
        raise
    return procs


def _reap(procs: list[subprocess.Popen], timeout: float) -> None:
    """Wait up to *timeout* seconds in all for the processes to exit,
    then kill any still running."""
    deadline = time.monotonic() + timeout
    for proc in procs:
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass(frozen=True)
class QueensRunMeasurement:
    workers: int
    runtime_t: float
    solutions: int
    samples: LoadLog


def measure_queens_run(size: int, overflow: int, workers: int) -> QueensRunMeasurement:
    """Time one queens run on *workers* local `parqueue worker queens`
    processes.  The measured span covers supervision only, not cluster
    startup.  No worker process outlives the call."""
    from .apps.queens import Queens
    from .runtime import TcpBossConfig, start

    app = Queens()
    addr = f"127.0.0.1:{pick_free_port()}"
    procs = spawn_local_workers("queens", addr, workers)
    try:
        boss = start(TcpBossConfig(addr, workers), app.registry())
    except BaseException:
        _reap(procs, timeout=0)
        raise
    try:
        t0 = time.perf_counter()
        solutions = app.run(boss, size, overflow)
        runtime_t = time.perf_counter() - t0
        samples = boss.samples
    finally:
        try:
            boss.stop()
        finally:
            _reap(procs, timeout=30)
    return QueensRunMeasurement(workers, runtime_t, solutions, samples)
