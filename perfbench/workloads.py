"""Workload definitions, their inputs and reference outputs, and the
cluster each one runs on.

A workload is a fixed problem on a fixed cluster shape.  The seed only
draws the matsquare matrix; the queens inputs are deterministic.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import resource
import struct
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from parqueue import InprocConfig, ParqueueError, TcpBossConfig, TcpWorkerConfig, pick_free_port, start
from parqueue.apps import registry_for
from parqueue.apps.matsquare import MatrixSquare, multiply_row
from parqueue.apps.queens import Queens, count_from

SRC = Path(__file__).resolve().parent.parent / "src"

# known solution counts of the n-queens problem, checked on top of the
# serial reference
QUEENS_SOLUTIONS = {1: 1, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724, 11: 2680, 12: 14200}


@dataclass(frozen=True)
class Workload:
    name: str
    app: str        # "queens" or "matsquare"
    transport: str  # "inproc" or "tcp"
    workers: int
    size: int       # board size, or matrix dimension
    overflow: int = 0  # queens spill threshold
    jobs: int = 0   # jobs in the job graph, which the app fixes

    def to_json(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        # per-job overhead dominates; one worker because boss plus worker
        # already make two threads on two CPUs
        Workload("queens-fine-inproc", "queens", "inproc", 1, 12, 4, 104_528),
        # the same job graph over loopback TCP, isolating the transport
        Workload("queens-fine-tcp", "queens", "tcp", 2, 12, 4, 104_528),
        # few jobs, a big data share and large frames: the kernel, bulk
        # float codec and boss task path dominate
        Workload("matsquare-share-tcp", "matsquare", "tcp", 2, 500, 0, 500),
    )
}


def matrix_for(size: int, seed: int) -> list[list[float]]:
    rng = random.Random(seed)
    return [[rng.uniform(-1.0, 1.0) for _ in range(size)] for _ in range(size)]


def row_digest(row) -> str:
    """Digest of a row's exact binary64 bit patterns."""
    return hashlib.blake2b(struct.pack(f"<{len(row)}d", *row), digest_size=12).hexdigest()


def serial_reference(spec: Workload, seed: int):
    """Solve the problem serially in this process, without the runtime.
    Returns what a run's output is checked against."""
    if spec.app == "queens":
        count = count_from([], spec.size, sys.maxsize, spill=None)
        if count != QUEENS_SOLUTIONS.get(spec.size, count):
            raise AssertionError(f"serial queens {spec.size} gave {count}")
        return count
    matrix = matrix_for(spec.size, seed)
    return [row_digest(multiply_row(matrix, i)) for i in range(spec.size)]


def make_app(spec: Workload):
    return Queens() if spec.app == "queens" else MatrixSquare()


def app_args(spec: Workload, seed: int) -> tuple:
    """Arguments of app.run after the boss."""
    if spec.app == "queens":
        return spec.size, spec.overflow
    return (matrix_for(spec.size, seed),)


def jobs_completed(samples) -> int:
    """Job results the boss received: the LoadLog records where the
    number of active workers fell."""
    active = [sample.active_workers for sample in samples]
    return sum(1 for before, after in zip(active, active[1:]) if after < before)


def check_output(spec: Workload, output, expected) -> str | None:
    """None when the output matches the serial reference, else why not."""
    if spec.app == "queens":
        if output != expected:
            return f"queens counted {output}, serial count_from gives {expected}"
        return None
    if len(output) != len(expected):
        return f"matsquare returned {len(output)} rows, expected {len(expected)}"
    for i, (row, digest) in enumerate(zip(output, expected)):
        if len(row) != spec.size or row_digest(row) != digest:
            return f"matsquare row {i} differs from serial multiply_row"
    return None


def worker_main(app: str, connect: str, trace: bool) -> None:
    """A TCP worker process.  When traced it installs the tracer's
    wrappers and, once the boss stops it, writes its records to stdout."""
    registry = registry_for(app)
    if not trace:
        start(TcpWorkerConfig(connect), registry)
        return
    from tracer import ModulePatch, Tracer

    tracer = Tracer("worker")
    tracer.wrap_handlers(registry)
    with ModulePatch(tracer):
        start(TcpWorkerConfig(connect), registry)
    sys.stdout.buffer.write(pickle.dumps(tracer.dump()))


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS  # utime + stime


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


class Cluster:
    """A started cluster: the Boss plus, on TCP, the worker processes.

    With a tracer, inproc workers get traced endpoints through the
    tracer's module patch, and TCP workers trace themselves and hand
    their records over when stopped.
    """

    def __init__(self, spec: Workload, registry, tracer, worker_cpus: set[int]):
        self.procs: list[subprocess.Popen] = []
        self.worker_traces: list = []
        if spec.transport == "inproc":
            self.boss = start(InprocConfig(spec.workers), registry)
            return
        addr = f"127.0.0.1:{pick_free_port()}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        command = [sys.executable, __file__, spec.app, addr, "1" if tracer else "0"]
        try:
            for _ in range(spec.workers):
                proc = subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL,
                                        stdout=subprocess.PIPE if tracer else subprocess.DEVNULL)
                self.procs.append(proc)
                os.sched_setaffinity(proc.pid, worker_cpus)
            self.boss = start(TcpBossConfig(addr, spec.workers), registry)
        except BaseException:
            self._reap()
            raise

    def cpu_s(self) -> float:
        """CPU seconds used so far by the boss process and the workers."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime + sum(_proc_cpu_s(p.pid) for p in self.procs)

    def peak_rss_mb(self) -> float:
        """The largest high-water resident set among the processes."""
        kb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
        kb += [_proc_peak_rss_kb(p.pid) for p in self.procs]
        return max(kb) / 1024

    def stop(self) -> None:
        """Stop the boss, collect worker traces, and reap the workers."""
        try:
            self.boss.stop()
        except ParqueueError:
            pass  # the run already failed and says why
        finally:
            self._reap()

    def _reap(self) -> None:
        for proc in self.procs:
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            if out and proc.returncode == 0:
                self.worker_traces.append(pickle.loads(out))  # written by worker_main above


if __name__ == "__main__":  # a TCP worker: workloads.py APP HOST:PORT TRACE
    worker_main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
