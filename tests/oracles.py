"""Independent reference implementations used to freeze expected values.

These deliberately avoid the production code paths: the queens oracles
are a plain serial backtracking loop and a conflict check on a row
vector, the factorization oracle is ascending trial division, and the
matrix oracles are the direct triple loop and the plain k-order row loop.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def serial_queens_count(size: int) -> int:
    """Count non-attacking placements by serial backtracking over a
    stack of partial placements (pop newest, try every row)."""
    queue = [[]]
    solutions = 0
    while queue:
        row = queue.pop()
        k = len(row)
        for i in range(size):
            ok = True
            for j in range(k):
                if row[j] == i or abs(row[j] - i) == k - j:
                    ok = False
                    break
            if ok:
                if k + 1 == size:
                    solutions += 1
                else:
                    queue.append(row + [i])
    return solutions


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


def trial_division_factors(n: int) -> list[int]:
    """Prime factorization by ascending trial division."""
    assert n >= 2
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def matmul_direct(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """Direct O(d^3) matrix product."""
    d = len(a)
    out = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for k in range(d):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def square_row_k_order(matrix: list[list[float]], i: int) -> list[float]:
    """Row i of matrix @ matrix, one entry at a time: out[j] += a * matrix[k][j]
    for each nonzero a = matrix[i][k], k ascending."""
    d = len(matrix)
    out = [0.0] * d
    row = matrix[i]
    for k in range(d):
        a = row[k]
        if a:
            other = matrix[k]
            for j in range(d):
                out[j] += a * other[j]
    return out
