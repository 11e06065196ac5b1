"""Command line interface: example workloads, benchmarks, cluster roles.

One binary exposes every subcommand; `--role worker` turns the same
invocation into a TCP worker that joins a boss started elsewhere.
Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from . import codec
from .apps import registry_for
from .apps.factor import factor, format_factorization
from .apps.matsquare import MatrixSquare
from .apps.queens import Queens
from .errors import ParqueueError
from .metrics import (
    QueensWorkload,
    bench_overhead,
    emit_load_csv,
    format_overhead_table,
    format_scaling_table,
    scaling_report,
)
from .runtime import HandlerRegistry, InprocConfig, TcpBossConfig, TcpWorkerConfig, start


def _worker_counts(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--transport", choices=("inproc", "tcp"), default="inproc")
    common.add_argument("--role", choices=("boss", "worker"), default="boss")
    common.add_argument("--workers", type=int, default=4, help="worker count (boss side)")
    common.add_argument("--listen", metavar="HOST:PORT", help="boss listen address (tcp)")
    common.add_argument("--connect", metavar="HOST:PORT", help="boss address to join (tcp worker)")
    common.add_argument("--timeout", type=float, default=30.0, help="tcp setup timeout in seconds")
    common.add_argument("--load-csv", metavar="PATH", help="write the run's load samples as CSV")

    parser = argparse.ArgumentParser(prog="parqueue", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", parents=[common], help="prime factorization")
    p.add_argument("--n", type=int, help="integer >= 2 to factor")

    p = sub.add_parser("matsquare", parents=[common], help="square a random matrix")
    p.add_argument("--dim", type=int, default=16, help="matrix dimension")
    p.add_argument("--seed", type=int, default=0, help="matrix RNG seed")

    p = sub.add_parser("queens", parents=[common], help="count non-attacking queen placements")
    p.add_argument("--size", type=int, help="board size")
    p.add_argument("--overflow", type=int, default=8, help="local stack spill threshold")

    p = sub.add_parser("bench-overhead", parents=[common], help="sleep-job overhead benchmark")
    p.add_argument("--jobs", type=int, default=400)
    p.add_argument("--payload", type=int, default=0, help="doubles carried per job")
    p.add_argument("--sleep-ms", type=float, default=10.0)

    p = sub.add_parser("scaling", parents=[common], help="queens speedup/efficiency report")
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--overflow", type=int, default=20)
    p.add_argument("--worker-counts", type=_worker_counts, default="1,2,4,8",
                   help="comma-separated, must include 1")

    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.role == "worker":
        if cfg.transport != "tcp":
            parser.error("--role worker requires --transport tcp")
        if not cfg.connect:
            parser.error("--role worker requires --connect HOST:PORT")
        if cfg.command in ("bench-overhead", "scaling"):
            parser.error(f"{cfg.command} has no worker role")
        return cfg

    if cfg.transport == "tcp" and cfg.command in ("factor", "matsquare", "queens") and not cfg.listen:
        parser.error("--transport tcp requires --listen HOST:PORT in the boss role")
    if cfg.transport == "inproc" and cfg.workers < 1:
        parser.error("inproc transport requires --workers >= 1")
    if cfg.command == "factor":
        if cfg.n is None:
            parser.error("factor requires --n")
        if cfg.n < 2:
            parser.error(f"--n must be at least 2, got {cfg.n}")
    elif cfg.command == "queens":
        if cfg.size is None:
            parser.error("queens requires --size")
        if cfg.size < 1:
            parser.error(f"--size must be at least 1, got {cfg.size}")
        if cfg.overflow < 2:
            parser.error(f"--overflow must be at least 2, got {cfg.overflow}")
    elif cfg.command == "matsquare":
        if cfg.dim < 1:
            parser.error(f"--dim must be at least 1, got {cfg.dim}")
    elif cfg.command == "bench-overhead":
        if cfg.transport != "inproc":
            parser.error("bench-overhead runs on the inproc transport only")
        if cfg.jobs < 1:
            parser.error(f"--jobs must be at least 1, got {cfg.jobs}")
        if cfg.payload < 0:
            parser.error(f"--payload must not be negative, got {cfg.payload}")
    elif cfg.command == "scaling":
        if cfg.size < 1 or cfg.overflow < 2:
            parser.error("scaling requires --size >= 1 and --overflow >= 2")
        if not cfg.worker_counts or 1 not in cfg.worker_counts:
            parser.error("--worker-counts must include 1 (the speedup baseline)")
    return cfg


def _start_boss(cfg: argparse.Namespace, registry: HandlerRegistry):
    if cfg.transport == "inproc":
        return start(InprocConfig(cfg.workers), registry)
    return start(TcpBossConfig(cfg.listen, cfg.workers, cfg.timeout), registry)


def _run_worker(cfg: argparse.Namespace) -> int:
    start(TcpWorkerConfig(cfg.connect, cfg.timeout), registry_for(cfg.command))
    return 0


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


def _cmd_bench_overhead(cfg: argparse.Namespace) -> int:
    report = bench_overhead(cfg.jobs, cfg.payload, cfg.sleep_ms / 1000.0, cfg.workers)
    print(format_overhead_table([report]))
    return 0


def _cmd_scaling(cfg: argparse.Namespace) -> int:
    workload = QueensWorkload(cfg.size, cfg.overflow, cfg.transport)
    reports = scaling_report(workload, cfg.worker_counts)
    print(format_scaling_table(reports))
    if cfg.load_csv and workload.last is not None:
        emit_load_csv(workload.last.samples, cfg.load_csv)
    return 0


_COMMANDS = {
    "factor": _cmd_factor,
    "queens": _cmd_queens,
    "matsquare": _cmd_matsquare,
    "bench-overhead": _cmd_bench_overhead,
    "scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if cfg.role == "worker":
            return _run_worker(cfg)
        return _COMMANDS[cfg.command](cfg)
    except (ParqueueError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
