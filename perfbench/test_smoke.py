"""Smoke test of the benchmark itself at tiny sizes: both transports,
untraced and traced, plus the refusal to run without the source tree.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import EXACT_COUNTS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = [
    Workload("queens-tiny-inproc", "queens", "inproc", 1, 6, 4, 16),
    Workload("queens-tiny-tcp", "queens", "tcp", 2, 6, 4, 16),
    Workload("matsquare-tiny-tcp", "matsquare", "tcp", 2, 8, 0, 8),
]


@pytest.mark.parametrize("spec", TINY, ids=lambda spec: spec.name)
def test_untraced_run_reports_every_end_to_end_metric(spec):
    bench = run.Bench(spec, seed=3)
    bench.run(seconds=0, trace=False)
    assert bench.errors == []
    series = bench.end_to_end()
    assert sorted(series) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for values in series.values() for value in values)
    assert len(series["setup_s"]) == run.MIN_REPS * (1 + run.EXTRA_SETUPS[spec.transport])


@pytest.mark.parametrize("spec", TINY, ids=lambda spec: spec.name)
def test_traced_run_reports_every_layer_metric(spec):
    bench = run.Bench(spec, seed=3)
    bench.run(seconds=0, trace=True)
    assert bench.errors == []
    assert len(bench.traced) == run.MIN_TRACED_REPS
    series = bench.per_layer()
    assert sorted(series) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    layers = bench.traced[0]["layers"]
    assert layers["runtime.jobs"] == spec.jobs
    assert all(layers[name] == bench.traced[1]["layers"][name] for name in EXACT_COUNTS)
    assert layers["metrics.loadlog.records"] == bench.traced[0]["loadlog_records"]
    assert abs(layers["trace.boss.accounted_ratio"] - 1) < run.BOSS_ACCOUNTED_MARGIN
    if spec.transport == "tcp":
        assert layers["wire.encode_frame.calls"] > 0
    else:
        assert layers["wire.encode_frame.calls"] == layers["wire.read_frame.calls"] == 0


def test_a_wrong_output_fails_the_run():
    spec = TINY[0]
    bench = run.Bench(spec, seed=3)
    bench.expected += 1
    bench.run(seconds=0, trace=False)
    assert len(bench.errors) == 1 and "serial count_from" in bench.errors[0]
    assert bench.attempted == 1


def test_self_time_is_duration_minus_traced_children():
    tracer = Tracer("boss")
    inner = tracer.counted("codec.encode", "codec", lambda: sum(range(10_000)))
    outer = tracer.span("apps.handler", "apps", lambda: [inner() for _ in range(3)])
    outer()
    (log,) = tracer.dump()
    calls, seconds, child_seconds, _ = log["counted"]["codec.encode"]
    assert calls == 3 and child_seconds == 0.0
    start, end, child = (array("d", log["columns"][column]) for column in ("start", "end", "child"))
    assert child[0] == pytest.approx(seconds)
    assert end[0] - start[0] > child[0]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queens-fine-inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
