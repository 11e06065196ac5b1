"""Matrix squaring with a shared input matrix and boss-side assembly.

The boss broadcasts the matrix once; each job asks a worker for one row
of the square, and the worker hands the finished row straight back to
the boss as a task, bypassing the result queue.  The boss therefore
does real work during supervision: slotting rows into the output.
"""

from __future__ import annotations

from .. import codec
from ..runtime import Boss, HandlerRegistry, InprocConfig, Job, WorkerContext, start

MULTIPLY = 1
DATA = 2
RESULT = 3

Matrix = list[list[float]]


def multiply_row(matrix: Matrix, i: int) -> list[float]:
    """Row i of matrix @ matrix.  Each entry adds a * matrix[k][j] for
    the nonzero a = matrix[i][k] in k order, four rows k per pass; `+`
    folds left to right, so the sums are those of the plain k loop."""
    terms = [(a, matrix[k]) for k, a in enumerate(matrix[i]) if a]
    out = [0.0] * len(matrix)
    tail = len(terms) - len(terms) % 4
    for t in range(0, tail, 4):
        (a, p), (b, q), (c, r), (e, s) = terms[t:t + 4]
        out = [o + a * w + b * x + c * y + e * z for o, w, x, y, z in zip(out, p, q, r, s)]
    for a, p in terms[tail:]:
        out = [o + a * w for o, w in zip(out, p)]
    return out


class MatrixSquare:
    """One squaring run; holds the partially assembled result on the
    boss while workers stream rows back."""

    def __init__(self):
        self._rows: list | None = None

    def _handle_data(self, job: Job, ctx: WorkerContext) -> None:
        ctx.store["matrix"] = codec.decode(job.data)

    @staticmethod
    def _handle_multiply(job: Job, ctx: WorkerContext) -> bytes:
        i = codec.decode(job.data)
        row = multiply_row(ctx.store["matrix"], i)
        ctx.task(Job(RESULT, codec.encode({"pos": i, "row": row})))
        return b""

    def _handle_result(self, payload: bytes, boss: Boss) -> None:
        record = codec.decode(payload)
        self._rows[record["pos"]] = record["row"]

    def registry(self) -> HandlerRegistry:
        return HandlerRegistry(
            worker={MULTIPLY: self._handle_multiply, DATA: self._handle_data},
            boss_task={RESULT: self._handle_result},
        )

    def run(self, boss: Boss, matrix: Matrix) -> Matrix:
        d = len(matrix)
        if d < 1 or any(len(row) != d for row in matrix):
            raise ValueError("matrix must be square with dimension >= 1")
        shared = [[float(x) for x in row] for row in matrix]
        self._rows = [None] * d
        boss.share_data(DATA, codec.encode(shared))
        boss.run_jobs(Job(MULTIPLY, codec.encode(i)) for i in range(d))
        assert all(row is not None for row in self._rows)
        return self._rows


def matsquare(matrix: Matrix, workers: int = 4) -> Matrix:
    """Square a matrix on a fresh in-process cluster."""
    app = MatrixSquare()
    with start(InprocConfig(workers), app.registry()) as boss:
        return app.run(boss, matrix)
