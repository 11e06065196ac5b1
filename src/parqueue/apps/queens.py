"""Non-attacking queens counting with local stacks and a spill threshold.

A placement is a vector of row indices, one per occupied column.  Each
job seeds a worker-local stack with one partial placement; the worker
backtracks depth first, counting completed boards.  Whenever the local
stack reaches the overflow threshold the worker sheds its oldest (most
shallow, hence largest-subtree) entry to the boss as a new job, so idle
workers pick up work without flooding the global queue with tiny jobs.
Each job returns its partial count as the job result; a zero count is
the empty result, which the boss drops, and the boss sums the rest.
"""

from __future__ import annotations

from typing import Callable

from .. import codec
from ..runtime import Boss, HandlerRegistry, InprocConfig, Job, WorkerContext, start

PLACE = 1


def fits(row: list[int]) -> bool:
    """True iff the last queen attacks none of the earlier ones
    (same row or same diagonal)."""
    k = len(row) - 1
    if k < 1:
        return True
    last = row[k]
    for j in range(k):
        if row[j] == last or abs(row[j] - last) == k - j:
            return False
    return True


def place_payload(row, size: int, overflow: int) -> bytes:
    # flat scalar sequence [size, overflow, row...]: the hot payload of
    # the app, kept in the codec's bulk-packed form
    return codec.encode([size, overflow, *row])


def parse_place_payload(data: bytes) -> tuple[int, int, list[int]]:
    seq = codec.decode(data)
    return seq[0], seq[1], seq[2:]


def count_from(row, size: int, overflow: int, spill: Callable) -> int:
    """Count completed boards reachable from one partial placement.

    spill(row) is called to shed the oldest stack entry whenever the
    stack has reached overflow at the top of the loop.
    Stack entries cache the column/diagonal occupancy masks so each
    candidate square is a few bit tests.
    """
    cols = d1 = d2 = 0
    for j, r in enumerate(row):
        cols |= 1 << r
        d1 |= 1 << (r + j)
        d2 |= 1 << (r - j + size)
    stack = [(tuple(row), cols, d1, d2)]
    solutions = 0
    last = size - 1
    board = (1 << size) - 1
    while stack:
        while len(stack) >= overflow:
            spill(stack.pop(0)[0])
        row, cols, d1, d2 = stack.pop()
        k = len(row)
        free = ~(cols | (d1 >> k) | (d2 >> (size - k))) & board
        if k == last:
            solutions += free.bit_count()
            continue
        while free:  # lowest bit first keeps candidate order ascending
            bit = free & -free
            free -= bit
            i = bit.bit_length() - 1
            stack.append((row + (i,), cols | bit, d1 | bit << k, d2 | bit << (size - k)))
    return solutions


def handle_place(job: Job, ctx: WorkerContext) -> bytes:
    size, overflow, row = parse_place_payload(job.data)

    def spill(spilled):
        ctx.submit(Job(PLACE, place_payload(spilled, size, overflow)))

    found = count_from(row, size, overflow, spill)
    return codec.encode(found) if found else b""


class Queens:
    """One counting run: every job returns its partial count as its
    result, zero counts are empty and dropped, and run sums the rest."""

    def registry(self) -> HandlerRegistry:
        return HandlerRegistry(worker={PLACE: handle_place})

    def run(self, boss: Boss, size: int, overflow: int) -> int:
        if size < 1:
            raise ValueError("board size must be at least 1")
        if overflow < 2:
            raise ValueError("overflow must be at least 2")
        results = boss.run_jobs([Job(PLACE, place_payload([], size, overflow))])
        return sum(codec.decode(result.data) for result in results)


def queens_count(size: int, overflow: int, workers: int) -> int:
    """Count solutions on a fresh in-process cluster."""
    app = Queens()
    with start(InprocConfig(workers), app.registry()) as boss:
        return app.run(boss, size, overflow)
