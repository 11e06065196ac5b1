"""Acceptance suite: one test per criterion, each printing a PASS line
and holding to its stated runtime budget."""

import csv
import os
import time
from math import prod
from random import Random

import pytest
import sim
from oracles import is_prime_trial, serial_queens_count, trial_division_factors
from support import random_value, record_boss, values_equal
from test_protocol_props import expand_serially, run_graph

from parqueue import codec
from parqueue.apps import registry_for
from parqueue.apps.factor import factor
from parqueue.apps.matsquare import matsquare
from parqueue.apps.queens import queens_count
from parqueue.metrics import (
    bench_overhead,
    emit_load_csv,
    measure_queens_run,
    spawn_local_workers,
)
from parqueue.runtime import InprocConfig, TcpBossConfig, start
from parqueue.wire import Frame, MessageKind, encode_frame, pick_free_port


class budget:
    """Asserts the block stayed within its runtime budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s of {self.seconds}s budget)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.1f}s"
        return False


def test_c1_queens_correctness_vs_paper():
    with budget("c1 queens correctness", 60):
        for workers in (1, 2, 4, 8):
            for overflow in (4, 20):
                assert queens_count(5, overflow, workers) == 10
                assert queens_count(12, overflow, workers) == 14200
        for size in range(1, 12):
            assert queens_count(size, 8, 4) == serial_queens_count(size)


def test_c2_factor_correctness():
    with budget("c2 factor correctness", 30):
        with start(InprocConfig(4), registry_for("factor")) as boss:
            for n in range(2, 5001):
                assert factor(boss, n) == trial_division_factors(n)
            rng = Random(20260809)
            for _ in range(200):
                n = rng.randrange(2, 10**12 + 1)
                primes = factor(boss, n)
                assert prod(primes) == n
                assert all(is_prime_trial(p) for p in primes)


def test_c3_matsquare_vs_direct_oracle():
    from oracles import matmul_direct

    with budget("c3 matsquare", 5):
        rng = Random(16161616)
        for _ in range(3):
            m = [[rng.uniform(-10, 10) for _ in range(16)] for _ in range(16)]
            got = matsquare(m, workers=4)
            want = matmul_direct(m, m)
            for i in range(16):
                for j in range(16):
                    assert abs(got[i][j] - want[i][j]) <= 1e-12 * max(1.0, abs(want[i][j]))
        ints = [[float(rng.randrange(-50, 51)) for _ in range(16)] for _ in range(16)]
        assert matsquare(ints, workers=4) == matmul_direct(ints, ints)


def test_c4_protocol_properties_randomized():
    with budget("c4 protocol properties", 60):
        seeds_used = 0
        for seed in range(25):
            expected_ids, expected_leaves = expand_serially(seed, depth=3)
            for workers in (1, 2, 4, 8):
                schedule = sim.Random(7000 * seed + workers)
                invoked, results = run_graph(seed, 3, workers, schedule)
                seeds_used += 1
                assert invoked == expected_ids, schedule      # exactly-once, termination
                assert results == expected_leaves, schedule   # invariance, empty filtering
        assert seeds_used >= 100


def test_c5_backend_equivalence_factor_120():
    with budget("c5 backend equivalence", 10):
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


def test_c6_overhead_linearity():
    with budget("c6 overhead linearity", 90):
        plain = {n: bench_overhead(n, 0, 0.010, 8) for n in (100, 400, 1600)}
        per_job = [r.per_job_overhead for r in plain.values()]
        assert min(per_job) > 0
        assert max(per_job) / min(per_job) < 3.0
        with_payload = bench_overhead(1600, 1000, 0.010, 8)
        assert with_payload.overhead > plain[1600].overhead


MEASURED_COUNTS = (1, 2, 4, 8)
_queens_measurements: dict = {}


def queens_scaling_measurements():
    if not _queens_measurements:
        for workers in MEASURED_COUNTS:
            _queens_measurements[workers] = measure_queens_run(12, 20, workers)
    return _queens_measurements


def test_c7_load_diagram_and_counts(tmp_path):
    with budget("c7 load diagram and counts", 120):
        for workers, m in queens_scaling_measurements().items():
            assert m.solutions == 14200
            path = tmp_path / f"load-{workers}.csv"
            emit_load_csv(m.samples, path)
            with open(path) as handle:
                rows = list(csv.reader(handle))[1:]
            active = [int(row[1]) for row in rows]
            assert max(active) == workers  # every worker busy at least once
            assert active[0] == 0 and active[-1] == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 8,
    reason="speedup criterion presumes >= 8 hardware threads")
def test_c7_speedup_with_worker_processes():
    with budget("c7 speedup", 120):
        measurements = queens_scaling_measurements()
        times = [measurements[w].runtime_t for w in MEASURED_COUNTS]
        assert all(a > b for a, b in zip(times, times[1:])), times
        speedup = times[0] / times[-1]
        assert speedup >= 4.0, f"speedup(8) = {speedup:.2f}"


def test_c8_wire_golden_and_codec_roundtrip():
    with budget("c8 wire format golden", 5):
        stop = encode_frame(Frame(MessageKind.STOP))
        assert stop == bytes([0x4D, 0x51, 0x01, 0x09]) + bytes(9)
        assert len(stop) == 13
        assign = encode_frame(Frame(MessageKind.JOB_ASSIGN, 1, b"\x01\x02\x03"))
        assert len(assign) == 16
        assert assign[:4] == bytes([0x4D, 0x51, 0x01, 0x01])
        assert assign[5:9] == (1).to_bytes(4, "little")
        assert assign[9:13] == (3).to_bytes(4, "little")
        assert assign[13:] == b"\x01\x02\x03"

        rng = Random(0xACCE97)
        for _ in range(1000):
            value = random_value(rng)
            data = codec.encode(value)
            back = codec.decode(data)
            assert values_equal(back, value)
            assert codec.encode(back) == data
