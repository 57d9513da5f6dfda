import zlib
from fractions import Fraction

import numpy as np
import pytest

import ybrack as yb
from ybrack import linalg
from ybrack.rings import NotAFieldError


def matrix(ring, grid):
    return linalg.ExactMatrix.from_rows(ring, grid)


def test_rank_identity_over_f2():
    assert linalg.rank(matrix(yb.PrimeField(2), np.eye(3, dtype=int))) == 3


def test_rank_zero_matrix():
    assert linalg.rank(matrix(yb.PrimeField(5), np.zeros((2, 3), dtype=int))) == 0


def test_rank_dependent_rows_over_q():
    # second row is twice the first
    assert linalg.rank(matrix(yb.Rationals(), [[1, 2], [2, 4]])) == 1


def test_kernel_zero_matrix():
    basis = linalg.kernel_basis(matrix(yb.PrimeField(5), np.zeros((2, 3), dtype=int)))
    assert len(basis) == 3


def test_kernel_identity_empty():
    assert linalg.kernel_basis(matrix(yb.PrimeField(3), np.eye(4, dtype=int))) == []


def test_kernel_sum_over_f2():
    basis = linalg.kernel_basis(matrix(yb.PrimeField(2), [[1, 1]]))
    assert basis == [[1, 1]]


def test_rank_rejects_truncated_rings():
    ring = yb.parse_ring("F3[h]/h^2")
    mat = linalg.ExactMatrix(ring, 2, 2, entries=ring.eye(2))
    with pytest.raises(NotAFieldError):
        linalg.rank(mat)


def _random_matrix(ring, rng):
    rows = int(rng.integers(1, 31))
    cols = int(rng.integers(1, 31))
    if isinstance(ring, yb.Rationals):
        grid = rng.integers(-9, 10, size=(rows, cols))
    else:
        grid = rng.integers(0, ring.p, size=(rows, cols))
    return matrix(ring, grid)


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
def test_rank_nullity_and_kernel_exactness(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(zlib.crc32(spec.encode()))
    for _ in range(200):
        m = _random_matrix(ring, rng)
        basis = linalg.kernel_basis(m)
        assert linalg.rank(m) + len(basis) == m.cols
        for vec in basis:
            image = m.apply(vec)
            assert all(ring.is_zero(v) for v in image)


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
def test_rank_equals_transpose_rank(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(zlib.crc32((spec + "t").encode()))
    for _ in range(200):
        m = _random_matrix(ring, rng)
        assert linalg.rank(m) == linalg.rank(m.transpose())


def test_solve_finds_exact_solutions():
    ring = yb.PrimeField(7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = _random_matrix(ring, rng)
        x = [int(v) for v in rng.integers(0, 7, size=m.cols)]
        rhs = m.apply(x)
        sol = linalg.solve(m, rhs)
        assert sol is not None
        assert all(ring.is_zero(ring.sub(a, b)) for a, b in zip(m.apply(sol), rhs))


def test_solve_detects_inconsistency():
    ring = yb.PrimeField(3)
    m = matrix(ring, [[1, 0], [1, 0]])
    assert linalg.solve(m, [1, 2]) is None


def test_sparse_and_dense_elimination_agree():
    # RREF is canonical, so the two elimination paths must agree exactly
    import ybrack.linalg as ll
    ring = yb.PrimeField(3)
    rng = np.random.default_rng(11)
    grid = rng.integers(0, 3, size=(12, 8))
    dense = matrix(ring, grid)
    fast_rank = linalg.rank(dense)
    fast_kernel = linalg.kernel_basis(dense)
    saved = ll._DENSE_ELIMINATION_LIMIT
    try:
        ll._DENSE_ELIMINATION_LIMIT = 0  # force the generic sparse path
        assert linalg.rank(dense) == fast_rank
        assert linalg.kernel_basis(dense) == fast_kernel
    finally:
        ll._DENSE_ELIMINATION_LIMIT = saved


def test_dump_and_load_round_trip():
    ring = yb.Rationals()
    m = matrix(ring, [[Fraction(1, 2), 0], [0, Fraction(-3)]])
    text = linalg.dump_matrix(m)
    assert text.splitlines()[0] == "2 2 0"
    assert "1/2" in text
    back = linalg.load_matrix(text)
    assert back.entry(0, 0) == Fraction(1, 2)
    assert back.entry(1, 1) == Fraction(-3)

    F5 = yb.PrimeField(5)
    m5 = matrix(F5, [[0, 3], [4, 0]])
    back5 = linalg.load_matrix(linalg.dump_matrix(m5))
    assert back5.entry(0, 1) == 3 and back5.entry(1, 0) == 4
    assert back5.ring == F5
