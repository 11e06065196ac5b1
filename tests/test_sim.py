"""The simulated cluster: seeded schedules replay, small job graphs are
checked under every schedule, and a run with nothing to deliver fails
at once instead of hanging."""

import time
from collections import Counter

import pytest
import sim
from test_protocol_props import expand_serially, run_graph

from parqueue import codec
from parqueue.apps import factor
from parqueue.apps.matsquare import DATA, MULTIPLY, MatrixSquare, multiply_row
from parqueue.apps.queens import Queens, count_from, place_payload
from parqueue.errors import ParqueueError
from parqueue.runtime import HandlerRegistry, Job


def recording(registry: HandlerRegistry, log: list) -> HandlerRegistry:
    """The same handlers, each invocation logged as (node, job type, data)."""
    def wrap(handler):
        def logged(job, ctx):
            log.append((ctx.node_id, job.job_type, job.data))
            return handler(job, ctx)
        return logged

    registry.worker = {job_type: wrap(h) for job_type, h in registry.worker.items()}
    return registry


def run_factor(n: int, workers: int, schedule: sim.Chooser):
    """Factor n on a simulated cluster; returns the primes and the
    numbers the split jobs ran on."""
    log = []
    primes = sim.run(workers, recording(factor.registry(), log), schedule,
                     lambda boss: factor.factor(boss, n))
    return primes, sorted(codec.decode(data) for _, _, data in log)


def test_seeded_schedules_replay():
    traces = set()
    for seed in range(20):
        first, again = sim.Random(seed), sim.Random(seed)
        assert run_factor(120, 3, first) == run_factor(120, 3, again) == (
            [2, 2, 2, 3, 5], [2, 2, 2, 3, 4, 5, 10, 12, 120])
        assert first.trace == again.trace, f"seed {seed}"
        traces.add(sim.format_trace(first.trace))
    assert len(traces) == 20  # each seed a different schedule


def test_a_failing_run_names_its_seed_and_its_printed_trace_replays():
    def two_first(boss):
        primes = [codec.decode(job.data) for job in boss.run_jobs([Job(factor.SPLIT, codec.encode(120))])]
        assert primes[0] == 2, f"primes arrived as {primes}"

    sim.run(3, factor.registry(), sim.Random(0), two_first)  # passes under this schedule
    with pytest.raises(sim.ScheduleFailed) as failed:
        sim.run(3, factor.registry(), sim.Random(5), two_first)
    named, printed = str(failed.value).split("\ndelivered: ")
    assert named.startswith("Random(5) failed: AssertionError('primes arrived as [3, 2, 2, 5, 2]")
    assert printed.startswith("0>1 1>0 ")

    replay = sim.Replay(printed)
    with pytest.raises(sim.ScheduleFailed, match=r"primes arrived as \[3, 2, 2, 5, 2\]"):
        sim.run(3, factor.registry(), replay, two_first)
    assert sim.format_trace(replay.trace) == printed


def test_replay_reports_where_it_diverges():
    with pytest.raises(sim.ScheduleFailed, match="replay diverged at delivery 2: wanted 2>0"):
        run_factor(120, 3, sim.Replay("0>1 1>0 2>0"))


def test_factor_12_under_every_schedule():
    def run(schedule):
        assert run_factor(12, 2, schedule) == ([2, 2, 3], [2, 2, 3, 4, 12])

    assert sim.every_schedule(run) == 1362


def test_c4_graph_under_every_schedule():
    ids, leaves = expand_serially(0, depth=2)

    def run(schedule):
        assert run_graph(0, 2, 2, schedule) == (ids, leaves)

    assert sim.every_schedule(run) == 174


def test_queens_4_under_every_schedule():
    # the job set does not depend on the schedule: each job's spills are
    # fixed by its own placement, so expand them serially
    jobs, pending = [], [((), 0, 0, 0)]
    while pending:
        row, *masks = entry = pending.pop()
        jobs.append(place_payload(entry, 4, 3))
        count_from(row, 4, 3, pending.append, masks)

    def run(schedule):
        app, log = Queens(), []
        count = sim.run(2, recording(app.registry(), log), schedule, lambda boss: app.run(boss, 4, 3))
        assert count == 2
        assert Counter(data for _, _, data in log) == Counter(jobs)  # exactly once

    assert sim.every_schedule(run) == 318


def test_matsquare_tasks_and_share_acks_under_every_schedule():
    # boss tasks (ctx.task's wait for TASK_RESPONSE) and data-share
    # acknowledgments interleaved with the other worker's frames
    matrix = [[1.0, 2.0], [3.0, 4.0]]

    def run(schedule):
        app, log = MatrixSquare(), []
        square = sim.run(2, recording(app.registry(), log), schedule, lambda boss: app.run(boss, matrix))
        assert square == [multiply_row(matrix, 0), multiply_row(matrix, 1)]
        assert sorted((node, job_type) for node, job_type, _ in log if job_type == DATA) == [
            (1, DATA), (2, DATA)]
        assert sorted(codec.decode(data) for _, job_type, data in log if job_type == MULTIPLY) == [0, 1]

    assert sim.every_schedule(run) == 840


def test_nothing_to_deliver_while_the_boss_waits_is_a_named_deadlock():
    def mute_worker(endpoint, registry):  # takes every frame, answers none
        try:
            while True:
                endpoint.recv()
        except ParqueueError:
            pass

    started = time.monotonic()
    with pytest.raises(sim.ScheduleFailed) as failed:
        sim.run(2, HandlerRegistry(), sim.Random(1), lambda boss: boss.run_jobs([Job(1)]),
                worker_main=mute_worker)
    assert time.monotonic() - started < 1
    assert str(failed.value) == (
        "Random(1) failed: Deadlock('deadlock: nodes 0, 1, 2 wait in recv with nothing to deliver')"
        "\ndelivered: 0>1")
    assert isinstance(failed.value.__cause__, sim.Deadlock)
