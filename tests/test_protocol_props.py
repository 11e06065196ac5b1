"""Randomized protocol properties over the simulated cluster.

A deterministic pseudo-random job graph unfolds through worker
submissions; the order in which frames reach each node is picked by a
seeded chooser (see sim.py), so every schedule replays.  Whatever the
schedule: every job runs exactly once, supervision terminates, the
result multiset matches the serial expansion of the same graph, and
empty results never surface.
"""

from random import Random

import sim

from parqueue import codec
from parqueue.runtime import HandlerRegistry, Job

WORK = 1
MAX_CHILDREN = 3


def children_of(node_id: int, depth: int, seed: int) -> list[int]:
    """Deterministic fanout: ids follow heap numbering with branching
    MAX_CHILDREN+1 so every id in the graph is unique."""
    if depth == 0:
        return []
    rng = Random((seed << 32) ^ node_id)
    k = rng.randrange(0, MAX_CHILDREN + 1)
    return [node_id * (MAX_CHILDREN + 1) + c + 1 for c in range(k)]


def expand_serially(seed: int, depth: int):
    """Oracle: walk the whole graph without a queue."""
    ids, leaves = [], []
    frontier = [(1, depth)]
    while frontier:
        node_id, left = frontier.pop()
        ids.append(node_id)
        kids = children_of(node_id, left, seed)
        if kids:
            frontier.extend((kid, left - 1) for kid in kids)
        else:
            leaves.append(node_id)
    return sorted(ids), sorted(leaves)


def payload(node_id: int, depth: int, seed: int) -> bytes:
    return codec.encode([node_id, depth, seed])


def run_graph(seed: int, depth: int, workers: int, schedule: sim.Chooser):
    invoked = []

    def handler(job, ctx):
        node_id, left, graph_seed = codec.decode(job.data)
        invoked.append(node_id)
        kids = children_of(node_id, left, graph_seed)
        for kid in kids:
            ctx.submit(Job(WORK, payload(kid, left - 1, graph_seed)))
        return b"" if kids else codec.encode(node_id)

    registry = HandlerRegistry(worker={WORK: handler})
    out = sim.run(workers, registry, schedule,
                  lambda boss: boss.run_jobs([Job(WORK, payload(1, depth, seed))]))
    results = sorted(codec.decode(job.data) for job in out)
    return sorted(invoked), results


def test_exactly_once_termination_and_result_invariance():
    checked_graphs = 0
    interleavings = 0
    for seed in range(25):
        expected_ids, expected_leaves = expand_serially(seed, depth=3)
        checked_graphs += 1
        for workers in (1, 2, 4, 8):
            interleavings += 1
            schedule = sim.Random(1000 * seed + workers)
            invoked, results = run_graph(seed, 3, workers, schedule)
            # exactly-once: each job id invoked a single time
            assert invoked == expected_ids, schedule
            # empty results filtered: only leaves surface, each exactly once
            assert results == expected_leaves, schedule
    assert checked_graphs == 25
    assert interleavings == 100


def test_exactly_once_up_to_sixteen_workers():
    for seed in (3, 11):
        expected_ids, expected_leaves = expand_serially(seed, depth=4)
        for workers in (12, 16):
            schedule = sim.Random(seed * 31 + workers)
            invoked, results = run_graph(seed, 4, workers, schedule)
            assert invoked == expected_ids, schedule
            assert results == expected_leaves, schedule


def test_deep_self_submitting_chain_terminates():
    # a linear chain 200 deep: each job submits exactly one child
    def handler(job, ctx):
        depth = codec.decode(job.data)
        if depth:
            ctx.submit(Job(WORK, codec.encode(depth - 1)))
            return b""
        return codec.encode(0)

    registry = HandlerRegistry(worker={WORK: handler})
    out = sim.run(3, registry, sim.Random(99), lambda boss: boss.run_jobs([Job(WORK, codec.encode(200))]))
    assert [codec.decode(j.data) for j in out] == [0]


def test_wide_fanout_single_level():
    def handler(job, ctx):
        kind = codec.decode(job.data)
        if kind == 0:
            for i in range(500):
                ctx.submit(Job(WORK, codec.encode(i + 1)))
            return b""
        return job.data

    registry = HandlerRegistry(worker={WORK: handler})
    out = sim.run(4, registry, sim.Random(5), lambda boss: boss.run_jobs([Job(WORK, codec.encode(0))]))
    assert sorted(codec.decode(j.data) for j in out) == list(range(1, 501))
