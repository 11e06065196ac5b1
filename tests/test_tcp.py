"""End-to-end runs over the TCP backend on localhost."""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from support import record_boss

import parqueue
from parqueue import metrics
from parqueue.apps import registry_for
from parqueue.apps.factor import factor
from parqueue.errors import StartupError
from parqueue.metrics import measure_queens_run, spawn_local_workers
from parqueue.runtime import TcpBossConfig, TcpWorkerConfig, start
from parqueue.wire import MessageKind, pick_free_port


def test_factor_over_tcp_with_worker_processes():
    port = pick_free_port()
    addr = f"127.0.0.1:{port}"
    procs = spawn_local_workers("factor", addr, 2)
    boss = start(TcpBossConfig(addr, 2, timeout=30), registry_for("factor"))
    with boss:
        assert factor(boss, 360) == [2, 2, 2, 3, 3, 5]
        assert factor(boss, 97) == [97]
    for proc in procs:
        assert proc.wait(timeout=30) == 0


def test_in_process_threads_can_host_tcp_workers():
    # worker side of the TCP backend run from plain threads; start()
    # returns None there once the boss stops the cluster
    port = pick_free_port()
    addr = f"127.0.0.1:{port}"
    returned = []

    def worker_main():
        returned.append(start(TcpWorkerConfig(addr, timeout=10), registry_for("queens")))

    threads = [threading.Thread(target=worker_main) for _ in range(3)]
    for t in threads:
        t.start()
    from parqueue.apps.queens import Queens

    app = Queens()
    boss = start(TcpBossConfig(addr, 3, timeout=10), app.registry())
    with boss:
        assert app.run(boss, 6, 4) == 4
    for t in threads:
        t.join(timeout=10)
    assert returned == [None, None, None]


def test_cli_worker_role_joins_a_library_boss():
    port = pick_free_port()
    addr = f"127.0.0.1:{port}"
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "parqueue.cli", "worker", "queens",
             "--connect", addr, "--timeout", "15"],
        )
        for _ in range(2)
    ]
    from parqueue.apps.queens import Queens

    app = Queens()
    boss = start(TcpBossConfig(addr, 2, timeout=15), app.registry())
    with boss:
        assert app.run(boss, 8, 6) == 92
    for proc in workers:
        assert proc.wait(timeout=30) == 0


def test_spawned_workers_import_this_copy_without_pythonpath(tmp_path):
    # the package is reachable only through the parent's sys.path, as in
    # an uninstalled checkout; the worker processes must still import it
    src = str(Path(parqueue.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r})\n"
              "from parqueue.metrics import measure_queens_run\n"
              "print(measure_queens_run(6, 4, 1, 'tcp').solutions)\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.stdout == "4\n", run.stderr


def test_measure_queens_run_kills_its_workers_when_the_boss_cannot_start(monkeypatch):
    spawned = []

    def spawn(*args):
        spawned.extend(spawn_local_workers(*args))
        return spawned

    with socket.create_server(("127.0.0.1", 0)) as taken:
        monkeypatch.setattr(metrics, "pick_free_port", lambda: taken.getsockname()[1])
        monkeypatch.setattr(metrics, "spawn_local_workers", spawn)
        with pytest.raises(StartupError):
            measure_queens_run(6, 4, 2, "tcp")
    assert len(spawned) == 2
    assert all(proc.poll() is not None for proc in spawned)


def test_missing_worker_times_out_with_startup_error():
    port = pick_free_port()
    with pytest.raises(StartupError):
        start(TcpBossConfig(f"127.0.0.1:{port}", workers=1, timeout=0.4), registry_for("factor"))


def test_tcp_and_inproc_produce_identical_boss_traces():
    from parqueue.runtime import InprocConfig

    def run_traced(config, procs=None):
        boss = start(config, registry_for("factor"))
        recorder = record_boss(boss)
        with boss:
            primes = factor(boss, 120)
        if procs:
            for proc in procs:
                proc.wait(timeout=30)
        return primes, recorder.kind_counts()

    inproc_primes, inproc_counts = run_traced(InprocConfig(3))

    port = pick_free_port()
    addr = f"127.0.0.1:{port}"
    procs = spawn_local_workers("factor", addr, 3)
    tcp_primes, tcp_counts = run_traced(TcpBossConfig(addr, 3, timeout=30), procs)

    assert tcp_primes == inproc_primes == [2, 2, 2, 3, 5]
    assert tcp_counts == inproc_counts
    # the factorization of 120 has nine jobs, eight of them submitted
    assert inproc_counts[("send", MessageKind.JOB_ASSIGN)] == 9
    assert inproc_counts[("recv", MessageKind.JOB_SUBMIT)] == 8
    assert inproc_counts[("recv", MessageKind.JOB_RESULT)] == 9
