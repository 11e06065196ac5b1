"""Command line interface: example workloads, benchmarks, cluster roles.

One binary exposes every subcommand, and each takes only the options
it reads.  The apps (factor, matsquare, queens) run the boss: on
--workers inproc threads, or, with --listen HOST:PORT, serving that
many TCP workers.  `worker APP --connect HOST:PORT` runs one TCP worker
for the app's boss started elsewhere.  bench-overhead always runs on
inproc threads; scaling starts one cluster of local TCP worker
processes per worker count.  Exit codes: 0 success, 2 usage error, 1
runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys

from . import codec
from .apps import registry_for
from .apps.factor import factor, format_factorization
from .apps.matsquare import MatrixSquare
from .apps.queens import Queens
from .errors import ParqueueError
from .metrics import (
    ScalingReport,
    bench_overhead,
    emit_load_csv,
    format_overhead_table,
    format_scaling_table,
    measure_queens_run,
)
from .runtime import HandlerRegistry, InprocConfig, TcpBossConfig, TcpWorkerConfig, start


_APPS = ("factor", "matsquare", "queens")


def _at_least(low: int):
    """argparse type: an integer no smaller than *low*."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _worker_counts(text: str) -> list[int]:
    count = _at_least(1)
    counts = [count(part) for part in text.split(",") if part.strip()]
    if 1 not in counts:
        raise argparse.ArgumentTypeError("must include 1 (the speedup baseline)")
    return counts


def build_parser() -> argparse.ArgumentParser:
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("--workers", type=_at_least(0), default=4, help="worker count")
    cluster.add_argument("--listen", metavar="HOST:PORT",
                         help="serve TCP workers here instead of starting inproc threads")
    cluster.add_argument("--timeout", type=float, default=30.0, help="tcp setup timeout in seconds")
    cluster.add_argument("--load-csv", metavar="PATH", help="write the run's load samples as CSV")

    parser = argparse.ArgumentParser(prog="parqueue", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for errors spanning its options

    p = sub.add_parser("factor", parents=[cluster], help="prime factorization")
    p.add_argument("--n", type=_at_least(2), required=True, help="integer >= 2 to factor")

    p = sub.add_parser("matsquare", parents=[cluster], help="square a random matrix")
    p.add_argument("--dim", type=_at_least(1), default=16, help="matrix dimension")
    p.add_argument("--seed", type=int, default=0, help="matrix RNG seed")

    p = sub.add_parser("queens", parents=[cluster], help="count non-attacking queen placements")
    p.add_argument("--size", type=_at_least(1), required=True, help="board size")
    p.add_argument("--overflow", type=_at_least(2), default=8, help="local stack spill threshold")

    p = sub.add_parser("worker", help="join a TCP boss as one worker")
    p.add_argument("app", choices=_APPS, help="the app whose handlers to run")
    p.add_argument("--connect", metavar="HOST:PORT", required=True, help="boss address")
    p.add_argument("--timeout", type=float, default=30.0, help="setup timeout in seconds")

    p = sub.add_parser("bench-overhead", help="sleep-job overhead benchmark (inproc)")
    p.add_argument("--workers", type=_at_least(1), default=4, help="worker threads")
    p.add_argument("--jobs", type=_at_least(1), default=400)
    p.add_argument("--payload", type=_at_least(0), default=0, help="doubles carried per job")
    p.add_argument("--sleep-ms", type=float, default=10.0)

    p = sub.add_parser("scaling", help="queens speedup/efficiency report")
    p.add_argument("--load-csv", metavar="PATH", help="write the largest run's load samples as CSV")
    p.add_argument("--size", type=_at_least(1), default=12)
    p.add_argument("--overflow", type=_at_least(2), default=20)
    p.add_argument("--worker-counts", type=_worker_counts, default="1,2,4,8",
                   help="comma-separated, must include 1")

    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.command in _APPS and cfg.listen is None and cfg.workers < 1:
        parser.subcommands[cfg.command].error("--workers must be at least 1 without --listen")
    if not 0 < getattr(cfg, "timeout", 1.0) < math.inf:
        parser.subcommands[cfg.command].error(f"--timeout must be finite and above zero, got {cfg.timeout}")
    return cfg


def _start_boss(cfg: argparse.Namespace, registry: HandlerRegistry):
    if cfg.listen is None:
        return start(InprocConfig(cfg.workers), registry)
    return start(TcpBossConfig(cfg.listen, cfg.workers, cfg.timeout), registry)


def _maybe_write_csv(cfg: argparse.Namespace, boss) -> None:
    if cfg.load_csv:
        emit_load_csv(boss.samples, cfg.load_csv)


def _cmd_factor(cfg: argparse.Namespace) -> int:
    with _start_boss(cfg, registry_for("factor")) as boss:
        primes = factor(boss, cfg.n)
        _maybe_write_csv(cfg, boss)
    print(format_factorization(cfg.n, primes))
    return 0


def _cmd_queens(cfg: argparse.Namespace) -> int:
    app = Queens()
    with _start_boss(cfg, app.registry()) as boss:
        solutions = app.run(boss, cfg.size, cfg.overflow)
        _maybe_write_csv(cfg, boss)
    print(f"solutions = {solutions}")
    return 0


def _cmd_matsquare(cfg: argparse.Namespace) -> int:
    rng = random.Random(cfg.seed)
    matrix = [[rng.random() for _ in range(cfg.dim)] for _ in range(cfg.dim)]
    app = MatrixSquare()
    with _start_boss(cfg, app.registry()) as boss:
        squared = app.run(boss, matrix)
        _maybe_write_csv(cfg, boss)
    digest = hashlib.sha256(codec.encode(squared)).hexdigest()
    print(f"checksum = {digest}")
    return 0


def _cmd_worker(cfg: argparse.Namespace) -> int:
    start(TcpWorkerConfig(cfg.connect, cfg.timeout), registry_for(cfg.app))
    return 0


def _cmd_bench_overhead(cfg: argparse.Namespace) -> int:
    report = bench_overhead(cfg.jobs, cfg.payload, cfg.sleep_ms / 1000.0, cfg.workers)
    print(format_overhead_table([report]))
    return 0


def _cmd_scaling(cfg: argparse.Namespace) -> int:
    runs = {w: measure_queens_run(cfg.size, cfg.overflow, w) for w in cfg.worker_counts}
    baseline_t = runs[1].runtime_t
    print(format_scaling_table(ScalingReport(w, runs[w].runtime_t, baseline_t) for w in cfg.worker_counts))
    if cfg.load_csv:
        emit_load_csv(runs[max(runs)].samples, cfg.load_csv)
    return 0


_COMMANDS = {
    "factor": _cmd_factor,
    "queens": _cmd_queens,
    "matsquare": _cmd_matsquare,
    "worker": _cmd_worker,
    "bench-overhead": _cmd_bench_overhead,
    "scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ParqueueError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
