import os

import pytest
import sim
from oracles import serial_queens_count
from support import record_boss

from parqueue.apps.queens import (
    Queens,
    count_from,
    fits,
    parse_place_payload,
    place_payload,
    queens_count,
)
from parqueue.metrics import spawn_local_workers
from parqueue.runtime import InprocConfig, TcpBossConfig, start
from parqueue.wire import MessageKind, pick_free_port


def run_traced(config, size, overflow, procs=()):
    """Count on a fresh cluster; returns the count and the boss's
    per-kind frame counts."""
    app = Queens()
    boss = start(config, app.registry())
    recorder = record_boss(boss)
    with boss:
        solutions = app.run(boss, size, overflow)
    for proc in procs:
        proc.wait(timeout=30)
    return solutions, recorder.kind_counts()


def test_fits_examples():
    assert fits([0, 3, 1, 4]) is True
    assert fits([0, 0]) is False   # same row
    assert fits([0, 1]) is False   # adjacent diagonal
    assert fits([]) is True
    assert fits([2]) is True
    assert fits([0, 3, 1, 4, 2]) is True  # the full placement it extends to


def test_payload_roundtrip():
    size, overflow, row = parse_place_payload(place_payload([0, 3, 1], 5, 8))
    assert (size, overflow, row) == (5, 8, [0, 3, 1])
    size, overflow, row = parse_place_payload(place_payload([], 9, 2))
    assert (size, overflow, row) == (9, 2, [])


def test_tiny_boards():
    assert queens_count(1, 2, 1) == 1
    assert queens_count(2, 2, 2) == 0
    assert queens_count(3, 4, 2) == 0
    assert queens_count(4, 2, 3) == 2


def test_five_board_has_ten_placements():
    assert queens_count(5, 8, 3) == 10


def test_eight_board_matches_oracle():
    assert queens_count(8, 8, 4) == serial_queens_count(8) == 92


def test_count_independent_of_overflow_and_workers():
    for size in (6, 7):
        expected = serial_queens_count(size)
        for overflow in (2, 4, 64):
            for workers in (1, 3):
                assert queens_count(size, overflow, workers) == expected
            for seed in (5, 6, 7):  # seeded arrival orders
                app, schedule = Queens(), sim.Random(seed)
                solutions = sim.run(3, app.registry(), schedule, lambda boss: app.run(boss, size, overflow))
                assert solutions == expected, schedule


def test_job_graph_frames_match_on_both_transports():
    inproc_count, inproc = run_traced(InprocConfig(2), 8, 4)
    addr = f"127.0.0.1:{pick_free_port()}"
    procs = spawn_local_workers("queens", addr, 2)
    tcp_count, tcp = run_traced(TcpBossConfig(addr, 2, timeout=30), 8, 4, procs)

    assert inproc_count == tcp_count == 92
    assert inproc == tcp
    # one round trip per job: the count rides on the RESULT, no task frames
    assert not [kind for _, kind in tcp
                if kind in (MessageKind.TASK_REQUEST, MessageKind.TASK_RESPONSE)]
    assigns = tcp[("send", MessageKind.JOB_ASSIGN)]
    assert tcp[("recv", MessageKind.JOB_RESULT)] == assigns
    assert tcp[("recv", MessageKind.JOB_SUBMIT)] == assigns - 1


def test_local_stack_never_exceeds_overflow_at_loop_top():
    for overflow in (2, 3, 8):
        observed = []
        count_from([], 7, overflow, lambda row: None, probe=observed.append)
        assert max(observed) < overflow


def test_spill_sheds_oldest_entries_first():
    # size 4, overflow 2, empty seed: the seed pops to four partials
    # (0),(1),(2),(3); spilling drains the oldest three, then (3) expands
    # to (3,0),(3,1) and (3,0) spills before (3,1) is processed
    spills = []
    found = count_from([], 4, 2, spills.append)
    assert spills == [(0,), (1,), (2,), (3, 0)]
    assert found == 0  # both solutions live under the spilled subtrees


def test_spilled_placements_are_valid_partials():
    spills = []
    count_from([], 6, 3, spills.append)
    for row in spills:
        for length in range(1, len(row) + 1):
            assert fits(list(row[:length]))


def test_count_from_covers_entire_tree_when_nothing_spills():
    assert count_from([], 8, 10**6, lambda row: None) == 92


def test_run_validates_arguments():
    app = Queens()
    with start(InprocConfig(1), app.registry()) as boss:
        with pytest.raises(ValueError):
            app.run(boss, 0, 4)
        with pytest.raises(ValueError):
            app.run(boss, 5, 1)


@pytest.mark.long
@pytest.mark.skipif(os.environ.get("PARQUEUE_LONG") != "1",
    reason="multi-minute run; set PARQUEUE_LONG=1 to enable")
def test_fifteen_board_long():
    assert queens_count(15, 30, 8) == 2279184
