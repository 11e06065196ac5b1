import csv
import time
import tracemalloc
import types

import pytest

import parqueue.metrics
from parqueue.apps.queens import Queens
from parqueue.metrics import (
    TIMED_RUNS,
    LoadLog,
    LoadSample,
    OverheadReport,
    ScalingReport,
    bench_overhead,
    emit_load_csv,
    format_overhead_table,
    format_scaling_table,
    measure_queens_run,
)
from parqueue.runtime import InprocConfig, start


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_empty_log_writes_header_only(tmp_path):
    path = tmp_path / "load.csv"
    emit_load_csv(LoadLog(), path)
    assert read_csv(path) == [["t_sec", "active_workers", "queued_jobs"]]


def test_single_sample_row(tmp_path):
    log = LoadLog()
    log.record(0.0, 0, 1)
    path = tmp_path / "load.csv"
    emit_load_csv(log, path)
    assert read_csv(path) == [
        ["t_sec", "active_workers", "queued_jobs"],
        ["0.000000", "0", "1"],
    ]


def test_row_count_matches_sample_count(tmp_path):
    log = LoadLog()
    for i in range(17):
        log.record(i * 0.5, i % 3, i)
    path = tmp_path / "load.csv"
    emit_load_csv(log, path)
    rows = read_csv(path)
    assert len(rows) == 18
    assert log[3] == LoadSample(1.5, 0, 3)
    assert len(log) == 17


def test_load_timeline_is_replayable():
    app = Queens()
    with start(InprocConfig(2), app.registry()) as boss:
        app.run(boss, 6, 4)
        samples = list(boss.samples)
    assert samples[0] == LoadSample(samples[0].t, 0, 1)
    assert samples[0].t < 0.05
    for prev, cur in zip(samples, samples[1:]):
        assert cur.t >= prev.t
        delta = (cur.active_workers - prev.active_workers,
                 cur.queued_jobs - prev.queued_jobs)
        # assignment, result, or submission
        assert delta in ((1, -1), (-1, 0), (0, 1))
    assert samples[-1].active_workers == 0
    assert samples[-1].queued_jobs == 0
    assert max(s.active_workers for s in samples) <= 2


def test_overhead_report_fields():
    # 100 jobs on 8 workers need 13 whole waves of sleep, not 12.5
    report = OverheadReport(jobs_n=100, payload_doubles=0, workers=8,
                            sleep_s=0.01, runtime_t=0.2)
    assert report.ideal == pytest.approx(0.13)
    assert report.overhead == pytest.approx(0.07)
    assert report.per_job_overhead == pytest.approx(0.0007)
    even = OverheadReport(jobs_n=400, payload_doubles=0, workers=8,
                          sleep_s=0.01, runtime_t=0.6)
    assert even.ideal == pytest.approx(0.5)


def test_bench_overhead_validates_inputs():
    with pytest.raises(ValueError):
        bench_overhead(0, 0, 0.01, 4)
    with pytest.raises(ValueError):
        bench_overhead(10, 0, 0.01, 0)
    with pytest.raises(ValueError):
        bench_overhead(10, -1, 0.01, 4)


def test_bench_overhead_reports_the_fastest_timed_run(monkeypatch):
    # each timed run reads the clock twice; the runs take 0.5, 0.2 and 0.9 s
    readings = iter([0.0, 0.5, 10.0, 10.2, 20.0, 20.9])
    clock = types.SimpleNamespace(sleep=time.sleep, perf_counter=lambda: next(readings))
    monkeypatch.setattr(parqueue.metrics, "time", clock)
    assert TIMED_RUNS == 3
    report = bench_overhead(4, 0, 0.001, 2)
    assert report.runtime_t == pytest.approx(0.2)
    assert next(readings, None) is None


def test_bench_overhead_small_run():
    report = bench_overhead(12, 4, 0.002, 3)
    assert report.jobs_n == 12
    assert report.runtime_t >= report.ideal > 0
    assert report.per_job_overhead == (report.runtime_t - report.ideal) / 12


def test_scaling_report_math():
    canned = {1: 8.0, 2: 4.0, 4: 2.5}
    reports = [ScalingReport(w, canned[w], canned[1]) for w in (1, 2, 4)]
    by_workers = {r.workers: r for r in reports}
    assert by_workers[1].speedup == pytest.approx(1.0)
    assert by_workers[2].speedup == pytest.approx(2.0)
    assert by_workers[4].speedup == pytest.approx(3.2)
    for r in reports:
        assert r.p == r.workers + 1
        assert r.efficiency == pytest.approx(r.speedup / r.p)
        assert r.worker_usage < r.total_usage
        assert r.worker_usage == pytest.approx(r.workers * r.runtime_t)


def test_tables_render():
    overhead = format_overhead_table(
        [OverheadReport(100, 0, 8, 0.01, 0.2), OverheadReport(400, 1000, 8, 0.01, 0.9)]
    )
    assert "Jobs n" in overhead and len(overhead.splitlines()) == 4
    scaling = format_scaling_table([ScalingReport(1, 4.0, 4.0), ScalingReport(2, 2.0, 4.0)])
    assert "Nodes p" in scaling and "Efficiency" in scaling
    assert len(scaling.splitlines()) == 4


def test_measure_queens_run_on_worker_processes():
    measurement = measure_queens_run(6, 4, 2)
    assert measurement.solutions == 4
    assert measurement.runtime_t > 0
    assert len(measurement.samples) > 0
    assert max(s.active_workers for s in measurement.samples) <= 2


def test_load_log_sample_takes_16_bytes():
    log = LoadLog()
    tracemalloc.start()
    try:
        for i in range(100_000):
            log.record(i * 1e-6, 1, i)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_800_000  # 16 bytes a sample plus the arrays' spare room
