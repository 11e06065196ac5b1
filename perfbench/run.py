"""parqueue benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload queens-fine-tcp --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh process (rep.py) and every output is
checked against a serial reference computed once per invocation.  With
--trace 0 the end-to-end metrics are printed; with --trace 1 the
per-layer metrics of traced repetitions, plus untraced ones for the
tracing overhead.  Timings are medians over the repetitions.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every repetition succeeded and matched.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REP_TIMEOUT_S = 150

MIN_REPS = 3           # untraced repetitions per run, at least
MIN_TRACED_REPS = 2    # two, so the exact counts can be compared
EXTRA_SETUPS = {"inproc": 12, "tcp": 2}  # setup-only samples per repetition
BOSS_ACCOUNTED_MARGIN = 0.01  # boss self times sum to the traced makespan within this
WORKER_ACCOUNTED_MIN = 0.80   # worker spans cover at least this share of worker time

END_TO_END_UNITS = {
    "makespan_s": "s",
    "jobs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.startswith(("wire.frames.", "runtime.jobs", "runtime.submits",
                                                  "runtime.tasks", "metrics.loadlog.records")):
        return "count"
    if name.endswith(("ratio", "fraction")):
        return "ratio"
    if "_ms." in name:
        return "ms"
    if "_us." in name or name.endswith("_us_per_job"):
        return "us"
    if "bytes" in name:
        return "B"
    if name.endswith("per_job"):
        return "count"
    return "s"


def run_meta(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit, "seed": seed}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(set(values)) == 1:  # a single value, or a count that repeated exactly
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    """Repetitions of one workload with one seed."""

    def __init__(self, spec, seed: int):
        import workloads

        self.spec = spec
        self.seed = seed
        t0 = time.perf_counter()
        self.expected = workloads.serial_reference(spec, seed)
        self.serial_s = time.perf_counter() - t0
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced) + len(self.errors)

    def rep(self, trace: bool) -> bool:
        request = {"workload": self.spec.to_json(), "seed": self.seed, "trace": trace,
                   "setups": 0 if trace else EXTRA_SETUPS[self.spec.transport],
                   "expected": self.expected}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "rep.py")], input=json.dumps(request),
                                  capture_output=True, text=True, cwd=ROOT, timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"repetition exceeded {REP_TIMEOUT_S} s")
            return False
        if proc.returncode != 0:
            self.errors.append(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return False
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        error = result["error"] or self._count_error(result)
        if error:
            self.errors.append(error)
            return False
        (self.traced if trace else self.untraced).append(result)
        return True

    def _count_error(self, result: dict) -> str | None:
        if result["jobs_completed"] != self.spec.jobs:
            return f"{result['jobs_completed']} jobs completed, the job graph has {self.spec.jobs}"
        first = (self.untraced + self.traced or [result])[0]
        if result["loadlog_records"] != first["loadlog_records"]:
            return f"LoadLog records {result['loadlog_records']} != {first['loadlog_records']}"
        if "layers" in result and self.traced:
            from layers import EXACT_COUNTS

            for name in EXACT_COUNTS:
                if result["layers"][name] != self.traced[0]["layers"][name]:
                    return f"{name} {result['layers'][name]} != {self.traced[0]['layers'][name]}"
        return None

    def run(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()

        def more(reps: list, least: int) -> bool:
            return not self.errors and (len(reps) < least or time.monotonic() - start < seconds)

        if not trace:
            while more(self.untraced, MIN_REPS):
                self.rep(False)
            return
        while more(self.traced, MIN_TRACED_REPS):
            if not self.rep(False) or not self.rep(True):
                break

    def end_to_end(self) -> dict[str, list[float]]:
        reps = self.untraced
        return {
            "makespan_s": [r["makespan_s"] for r in reps],
            "jobs_per_s": [r["jobs_completed"] / r["makespan_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "setup_s": [s for r in reps for s in r["setup_s"]],
        }

    def per_layer(self) -> dict[str, list[float]]:
        values = {name: [r["layers"][name] for r in self.traced] for name in self.traced[0]["layers"]}
        untraced = statistics.median(r["makespan_s"] for r in self.untraced)
        traced = statistics.median(r["makespan_s"] for r in self.traced)
        jobs = self.spec.jobs
        values["apps.serial_s"] = [self.serial_s]
        values["runtime.overhead_us_per_job"] = [
            (untraced - self.serial_s / self.spec.workers) / jobs * 1e6]
        values["trace.overhead_ratio"] = [traced / untraced]
        return values


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    bench = Bench(spec, args.seed)
    bench.run(args.seconds, bool(args.trace))
    correct = not bench.errors
    series = {}
    if correct:
        series = bench.per_layer() if args.trace else bench.end_to_end()
    failure_ratio = len(bench.errors) / bench.attempted

    meta = run_meta(args.seed)
    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(bench.untraced)} untraced, {len(bench.traced)} traced")
    print("  ".join(f"{k} {v}" for k, v in meta.items()))
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    metrics = {}
    for name, values in series.items():
        unit = layer_unit(name) if args.trace else END_TO_END_UNITS[name]
        q1, median, q3 = _quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:<34} {median:>14.6g} {q1:>14.6g} {q3:>14.6g}  {unit}")
    print(f"{'failure_ratio':<34} {failure_ratio:>14.6g} {'':>14} {'':>14}  ratio")
    if correct and args.trace:
        boss, worker = (metrics[f"trace.{role}.accounted_ratio"]["value"] for role in ("boss", "worker"))
        if abs(boss - 1) > BOSS_ACCOUNTED_MARGIN or worker < WORKER_ACCOUNTED_MIN:
            print(f"WARNING: traced time outside the accounting margin: boss {boss:.4f}, "
                  f"worker {worker:.4f}", file=sys.stderr)
    for error in bench.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print("detail " + json.dumps({"meta": meta, "workload": spec.to_json(),
                                  "serial_s": bench.serial_s, "failure_ratio": failure_ratio,
                                  "errors": bench.errors, "series": series}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.errors), "metrics": metrics}))
    return 0 if correct else 1


def _require_source() -> None:
    """Import parqueue from this checkout's src/, never an installed copy."""
    if not (SRC / "parqueue" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'parqueue'} not found; run from a parqueue checkout")
    sys.path.insert(0, str(SRC))
    import parqueue

    if Path(parqueue.__file__).resolve().parent != (SRC / "parqueue").resolve():
        sys.exit(f"error: imported parqueue from {parqueue.__file__}, not {SRC}")


if __name__ == "__main__":
    _require_source()
    sys.exit(main())
