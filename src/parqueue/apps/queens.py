"""Non-attacking queens counting with local stacks and a spill threshold.

A placement is a vector of row indices, one per occupied column.  Each
job seeds a worker-local stack with one partial placement; the worker
backtracks depth first over bitboards of the attacked rows (Richards'
bit-pattern backtracking), counting completed boards.  Whenever the
local stack reaches the overflow threshold the worker sheds its oldest
(most shallow, hence largest-subtree) entry to the boss as a new job, so
idle workers pick up work without flooding the global queue with tiny
jobs.  The bitboards travel with the placement, so the worker that takes
the job does not rebuild them; as uint64 they bound the board at 64.
Each job returns its partial count as the job result; a zero count is
the empty result, which the boss drops, and the boss sums the rest.
"""

from __future__ import annotations

from typing import Callable

from .. import codec
from ..runtime import Boss, HandlerRegistry, InprocConfig, Job, WorkerContext, start

PLACE = 1


def place_payload(entry, size: int, overflow: int) -> bytes:
    # flat scalar sequence [size, overflow, cols, ld, rd, row...]: the hot
    # payload of the app, kept in the codec's bulk-packed (uint64) form
    row, cols, ld, rd = entry
    return codec.encode([size, overflow, cols, ld, rd, *row])


def parse_place_payload(data: bytes) -> tuple[int, int, tuple]:
    seq = codec.decode(data)
    return seq[0], seq[1], (tuple(seq[5:]), seq[2], seq[3], seq[4])


def count_from(row, size: int, overflow: int, spill: Callable, masks=None) -> int:
    """Count completed boards reachable from one partial placement.

    A stack entry is (row, cols, ld, rd): the placement and the rows its
    queens attack in the next column, straight and along each diagonal,
    as bitboards below 2**size.  masks is (cols, ld, rd) for row, rebuilt
    from row when not given.  spill(entry) is called to shed the oldest
    stack entry whenever the stack has reached overflow at the top of
    the loop.
    """
    board = (1 << size) - 1
    if masks is None:
        cols = ld = rd = 0
        for r in row:
            bit = 1 << r
            cols, ld, rd = cols | bit, (ld | bit) >> 1, ((rd | bit) << 1) & board
        masks = cols, ld, rd
    stack = [(tuple(row), *masks)]
    solutions = 0
    last = size - 1
    while stack:
        while len(stack) >= overflow:
            spill(stack.pop(0))
        row, cols, ld, rd = stack.pop()
        free = ~(cols | ld | rd) & board
        if len(row) == last:
            solutions += free.bit_count()
            continue
        while free:  # lowest bit first keeps candidate order ascending
            bit = free & -free
            free -= bit
            i = bit.bit_length() - 1
            stack.append((row + (i,), cols | bit, (ld | bit) >> 1, ((rd | bit) << 1) & board))
    return solutions


def handle_place(job: Job, ctx: WorkerContext) -> bytes:
    size, overflow, (row, *masks) = parse_place_payload(job.data)

    def spill(entry):
        ctx.submit(Job(PLACE, place_payload(entry, size, overflow)))

    found = count_from(row, size, overflow, spill, masks)
    return codec.encode(found) if found else b""


class Queens:
    """One counting run: every job returns its partial count as its
    result, zero counts are empty and dropped, and run sums the rest."""

    def registry(self) -> HandlerRegistry:
        return HandlerRegistry(worker={PLACE: handle_place})

    def run(self, boss: Boss, size: int, overflow: int) -> int:
        if not 1 <= size <= 64:
            raise ValueError("board size must be from 1 to 64: the bitboards travel as uint64")
        if overflow < 2:
            raise ValueError("overflow must be at least 2")
        results = boss.run_jobs([Job(PLACE, place_payload(((), 0, 0, 0), size, overflow))])
        return sum(codec.decode(result.data) for result in results)


def queens_count(size: int, overflow: int, workers: int) -> int:
    """Count solutions on a fresh in-process cluster."""
    app = Queens()
    with start(InprocConfig(workers), app.registry()) as boss:
        return app.run(boss, size, overflow)
