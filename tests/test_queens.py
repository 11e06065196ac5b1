import inspect
import os
import sys

import pytest
import sim
from oracles import fits, serial_queens_count
from support import record_boss

from parqueue.apps.queens import (
    Queens,
    count_from,
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
    entry = ((0, 3, 1), 0b01011, 0b00100, 0b11000)
    assert parse_place_payload(place_payload(entry, 5, 8)) == (5, 8, entry)
    assert parse_place_payload(place_payload(((), 0, 0, 0), 9, 2)) == (9, 2, ((), 0, 0, 0))
    full = 2**64 - 1  # the widest masks a 64-board can hold
    assert parse_place_payload(place_payload(((63,), full, full, full), 64, 4)) == (
        64, 4, ((63,), full, full, full))


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
    # a line trace reads the stack's length each time the loop pops its next entry
    lines, first = inspect.getsourcelines(count_from)
    pop_line = first + next(i for i, line in enumerate(lines) if "= stack.pop()" in line)
    for overflow in (2, 3, 8):
        observed = []

        def trace(frame, event, arg):
            if event == "line" and frame.f_lineno == pop_line:
                observed.append(len(frame.f_locals["stack"]))
            return trace if frame.f_code is count_from.__code__ else None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            count_from([], 7, overflow, lambda entry: None)
        finally:
            sys.settrace(previous)
        assert observed and max(observed) < overflow


def test_spill_sheds_oldest_entries_first():
    # size 4, overflow 2, empty seed: the seed pops to four partials
    # (0),(1),(2),(3); spilling drains the oldest three, then (3) expands
    # to (3,0),(3,1) and (3,0) spills before (3,1) is processed; each
    # entry carries the rows attacked in the next column
    spills = []
    found = count_from([], 4, 2, spills.append)
    assert spills == [((0,), 0b0001, 0b0000, 0b0010),
                      ((1,), 0b0010, 0b0001, 0b0100),
                      ((2,), 0b0100, 0b0010, 0b1000),
                      ((3, 0), 0b1001, 0b0010, 0b0010)]
    assert found == 0  # both solutions live under the spilled subtrees


def test_spilled_placements_are_valid_partials():
    spills = []
    count_from([], 6, 3, spills.append)
    assert spills
    for row, *_ in spills:
        for length in range(1, len(row) + 1):
            assert fits(list(row[:length]))


def rebuilt_masks(row, size):
    """The occupancy masks of row's next column, from each queen's attacks."""
    k, cols, ld, rd = len(row), 0, 0, 0
    for j, r in enumerate(row):
        cols |= 1 << r
        if r - (k - j) >= 0:
            ld |= 1 << (r - (k - j))
        if r + (k - j) < size:
            rd |= 1 << (r + (k - j))
    return cols, ld, rd


def test_spilled_masks_match_the_masks_rebuilt_from_the_row():
    for size in range(4, 10):
        for overflow in (2, 3, 4):
            spills = []
            count_from([], size, overflow, spills.append)
            assert spills, (size, overflow)
            for row, *masks in spills:
                assert tuple(masks) == rebuilt_masks(row, size), (size, overflow, row)
                # a job seeded with the carried masks counts what one seeded with its row does
                assert count_from(row, size, overflow, lambda entry: None, masks) == count_from(
                    row, size, overflow, lambda entry: None)


def test_count_from_covers_entire_tree_when_nothing_spills():
    assert count_from([], 8, 10**6, lambda row: None) == 92


def test_run_validates_arguments():
    app = Queens()
    with start(InprocConfig(1), app.registry()) as boss:
        with pytest.raises(ValueError):
            app.run(boss, 0, 4)
        with pytest.raises(ValueError):
            app.run(boss, 5, 1)


def test_a_board_above_64_is_refused_before_any_job_is_sent():
    app = Queens()
    with start(InprocConfig(1), app.registry()) as boss:
        recorder = record_boss(boss)
        with pytest.raises(ValueError, match="from 1 to 64"):
            app.run(boss, 65, 4)
        assert not recorder.kind_counts()
        assert app.run(boss, 6, 4) == 4  # the cluster still runs


@pytest.mark.long
@pytest.mark.skipif(os.environ.get("PARQUEUE_LONG") != "1",
    reason="multi-minute run; set PARQUEUE_LONG=1 to enable")
def test_fifteen_board_long():
    assert queens_count(15, 30, 8) == 2279184
