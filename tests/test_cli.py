import csv
import re
import shlex
from pathlib import Path

import pytest

from parqueue.cli import main, parse_args


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_queens_config():
    cfg = parse_args(["queens", "--size", "12", "--overflow", "20", "--workers", "8"])
    assert (cfg.command, cfg.size, cfg.overflow, cfg.workers) == ("queens", 12, 20, 8)
    assert cfg.listen is None


def test_usage_errors_exit_two(capsys):
    cases = [
        ["factor", "--n", "1"],
        ["factor"],
        ["queens", "--size", "0"],
        ["queens", "--size", "5", "--overflow", "1"],
        ["factor", "--n", "6", "--connect", "127.0.0.1:1"],     # apps always run the boss
        ["worker", "factor"],                                    # worker without --connect
        ["worker", "factor", "--connect", "127.0.0.1:1", "--n", "6"],
        ["worker", "nope", "--connect", "127.0.0.1:1"],
        ["factor", "--n", "6", "--workers", "0"],
        ["queens", "--size", "5", "--bogus-flag"],
        ["bench-overhead", "--jobs", "0"],
        ["scaling", "--worker-counts", "2,4"],
        ["scaling", "--worker-counts", "nope"],
        ["scaling", "--worker-counts", "1,0"],
        ["scaling", "--workers", "3"],
        ["scaling", "--transport", "inproc"],
        ["bench-overhead", "--transport", "tcp"],
        ["bench-overhead", "--load-csv", "x.csv"],
        ["queens", "--size", "5", "--listen", "127.0.0.1:1", "--workers", "-1"],
        ["no-such-command"],
    ]
    for argv in cases:
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2, argv


@pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["worker", "factor", "--connect", "127.0.0.1:1"],
    ["factor", "--n", "6", "--listen", "127.0.0.1:0", "--workers", "1"],
], ids=["worker", "listening-boss"])
def test_timeout_must_be_finite_and_above_zero(capsys, argv, timeout):
    code, _, err = run_cli(capsys, *argv, "--timeout", timeout)
    assert code == 2
    assert err.startswith(f"usage: parqueue {argv[0]} ")
    assert f"--timeout must be finite and above zero, got {float(timeout)}" in err


def test_cross_option_error_shows_the_subcommand_usage(capsys):
    code, _, err = run_cli(capsys, "factor", "--n", "6", "--workers", "0")
    assert code == 2
    assert err.startswith("usage: parqueue factor ")
    assert "--workers must be at least 1 without --listen" in err


def test_factor_golden_line(capsys):
    code, out, err = run_cli(capsys, "factor", "--n", "120", "--workers", "4")
    assert code == 0
    assert out == "120 = 2 * 2 * 2 * 3 * 5\n"
    assert err == ""


def test_queens_golden_line(capsys):
    code, out, _ = run_cli(capsys, "queens", "--size", "5", "--workers", "2", "--overflow", "4")
    assert code == 0
    assert out == "solutions = 10\n"


def test_queens_with_load_csv(tmp_path, capsys):
    path = tmp_path / "load.csv"
    code, out, _ = run_cli(
        capsys, "queens", "--size", "8", "--workers", "4", "--overflow", "8",
        "--load-csv", str(path),
    )
    assert code == 0
    assert out == "solutions = 92\n"
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t_sec", "active_workers", "queued_jobs"]
    assert len(rows) > 1
    assert all(len(row) == 3 for row in rows[1:])
    assert rows[1][1] == "0"  # first sample precedes any assignment


def test_matsquare_checksum_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "matsquare", "--dim", "8", "--seed", "5", "--workers", "2")
    code2, out2, _ = run_cli(capsys, "matsquare", "--dim", "8", "--seed", "5", "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("checksum = ")
    _, out3, _ = run_cli(capsys, "matsquare", "--dim", "8", "--seed", "6", "--workers", "2")
    assert out3 != out1


def test_repeated_runs_print_identical_results(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(capsys, "queens", "--size", "6", "--workers", "3", "--overflow", "4")
        assert code == 0
        outs.add(out)
    assert outs == {"solutions = 4\n"}


def test_bench_overhead_prints_table(capsys):
    code, out, _ = run_cli(
        capsys, "bench-overhead", "--jobs", "8", "--sleep-ms", "1", "--workers", "2"
    )
    assert code == 0
    assert "Jobs n" in out and "Per-job" in out


def test_scaling_prints_table(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--size", "5", "--overflow", "4", "--worker-counts", "1,2",
    )
    assert code == 0
    assert "Nodes p" in out and "Speedup" in out
    assert len(out.splitlines()) == 4


def test_scaling_load_csv_is_from_the_largest_run(tmp_path, capsys):
    path = tmp_path / "load.csv"
    code, _, _ = run_cli(
        capsys, "scaling", "--size", "6", "--overflow", "4", "--worker-counts", "1,2",
        "--load-csv", str(path),
    )
    assert code == 0
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert max(int(row[1]) for row in rows[1:]) == 2


def test_runtime_failure_exits_one(capsys):
    port = 39999
    code, out, err = run_cli(
        capsys, "factor", "--n", "6",
        "--listen", f"127.0.0.1:{port}", "--workers", "1", "--timeout", "0.3",
    )
    assert code == 1
    assert "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line.strip().rstrip("&")
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("parqueue ")
    ]
    assert lines
    for line in lines:
        try:
            parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
