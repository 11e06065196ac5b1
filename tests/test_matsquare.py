import struct
from random import Random

import pytest
from oracles import matmul_direct, square_row_k_order

from parqueue.apps.matsquare import MatrixSquare, matsquare, multiply_row
from parqueue.runtime import InprocConfig, start


def test_multiply_row_direct():
    m = [[1.0, 2.0], [3.0, 4.0]]
    assert multiply_row(m, 0) == [7.0, 10.0]
    assert multiply_row(m, 1) == [15.0, 22.0]


_SPECIAL = {
    "zeros": (0.0, -0.0),
    "inf-nan": (0.0, -0.0, float("inf"), float("-inf"), float("nan")),
}


def _seeded_matrix(seed: int) -> list[list]:
    """d runs over 1..13, so every count of nonzero terms mod 4 occurs;
    some matrices mix in signed zeros, infinities and nan, some are integer."""
    rng = Random(seed)
    d = seed % 13 + 1
    kind = ("float", "zeros", "inf-nan", "int")[seed % 4]
    if kind == "int":
        return [[rng.choice((0, rng.randrange(-9, 10))) for _ in range(d)] for _ in range(d)]
    specials = _SPECIAL.get(kind, ())
    return [[rng.choice(specials) if specials and rng.random() < 0.3 else rng.uniform(-1, 1)
             for _ in range(d)] for _ in range(d)]


@pytest.mark.parametrize("seed", range(20))
def test_multiply_row_is_bit_identical_to_the_k_order_loop(seed):
    m = _seeded_matrix(seed)
    d = len(m)
    pack = struct.Struct(f"<{d}d").pack
    for i in range(d):
        assert pack(*multiply_row(m, i)) == pack(*square_row_k_order(m, i)), f"row {i}"


def test_identity_squares_to_identity():
    for d in (1, 3, 6):
        identity = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
        assert matsquare(identity, workers=2) == identity


def test_two_by_two_example():
    assert matsquare([[1, 2], [3, 4]], workers=2) == [[7.0, 10.0], [15.0, 22.0]]


def test_integer_matrices_match_oracle_exactly():
    rng = Random(21)
    m = [[float(rng.randrange(-9, 10)) for _ in range(8)] for _ in range(8)]
    assert matsquare(m, workers=3) == matmul_direct(m, m)


def test_random_16x16_matches_oracle_within_tolerance():
    rng = Random(1234)
    m = [[rng.random() for _ in range(16)] for _ in range(16)]
    got = matsquare(m, workers=4)
    want = matmul_direct(m, m)
    for i in range(16):
        for j in range(16):
            assert abs(got[i][j] - want[i][j]) <= 1e-12 * max(1.0, abs(want[i][j]))


def test_two_runs_on_one_cluster_second_share_overwrites():
    app = MatrixSquare()
    with start(InprocConfig(2), app.registry()) as boss:
        first = app.run(boss, [[2.0]])
        second = app.run(boss, [[1, 1], [1, 1]])
    assert first == [[4.0]]
    assert second == [[2.0, 2.0], [2.0, 2.0]]


def test_non_square_matrix_rejected():
    app = MatrixSquare()
    with start(InprocConfig(1), app.registry()) as boss:
        with pytest.raises(ValueError):
            app.run(boss, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            app.run(boss, [])
