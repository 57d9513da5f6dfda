import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

import ybrack as yb
from ybrack import linalg, rings
from ybrack.rings import NotAFieldError

import oracles
from conftest import small_rack_sample


def matrix(ring, grid):
    return linalg.ExactMatrix.from_grid(ring, oracles.ring_grid(ring, grid))


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
    mat = linalg.ExactMatrix.from_grid(ring, ring.eye(2))
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
            image = oracles.apply_longhand(m, vec)
            assert all(ring.is_zero(v) for v in image)


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
def test_rank_equals_transpose_rank(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(zlib.crc32((spec + "t").encode()))
    for _ in range(200):
        m = _random_matrix(ring, rng)
        assert linalg.rank(m) == linalg.rank(oracles.transpose_longhand(m))


def test_solve_finds_exact_solutions():
    ring = yb.PrimeField(7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = _random_matrix(ring, rng)
        x = [int(v) for v in rng.integers(0, 7, size=m.cols)]
        rhs = oracles.apply_longhand(m, x)
        sol = linalg.solve(m, rhs)
        assert sol is not None
        assert all(ring.is_zero(ring.sub(a, b))
                   for a, b in zip(oracles.apply_longhand(m, sol), rhs))


def test_solve_detects_inconsistency():
    ring = yb.PrimeField(3)
    m = matrix(ring, [[1, 0], [1, 0]])
    assert linalg.solve(m, [1, 2]) is None


@pytest.mark.parametrize("rhs", [[1], [1, 2, 0]])
def test_solve_refuses_a_rhs_of_the_wrong_length(rhs):
    m = matrix(yb.PrimeField(3), [[1, 0], [0, 1]])
    for call in (linalg.solve, linalg.rank_and_solve):
        with pytest.raises(ValueError, match=f"length {len(rhs)}, but the matrix has 2 rows"):
            call(m, rhs)


def _scalars(ring, grid):
    return [[ring.from_int(int(v)) for v in row] for row in grid]


def _block_matrix(ring, rng):
    """A random matrix made of a few blocks, rows and columns shuffled, in
    coordinate storage, and the same matrix as a list of rows of scalars.
    Over Q some entries are fractions."""
    shapes = [tuple(int(s) for s in rng.integers(1, 7, size=2))
              for _ in range(int(rng.integers(1, 5)))]
    rows, cols = sum(h for h, _ in shapes), sum(w for _, w in shapes)
    grid = [[ring.zero()] * cols for _ in range(rows)]
    r = c = 0
    for h, w in shapes:
        for i in range(r, r + h):
            for j in range(c, c + w):
                if rng.random() < 0.6:
                    v = ring.from_int(int(rng.integers(-9, 10)))
                    if isinstance(ring, yb.Rationals):
                        v = v / int(rng.integers(1, 4))
                    grid[i][j] = v
        r, c = r + h, c + w
    row_order, col_order = rng.permutation(rows), rng.permutation(cols)
    grid = [[grid[i][j] for j in col_order] for i in row_order]
    mat = linalg.ExactMatrix.from_coordinates(
        ring, rows, cols, ((i, j, v) for i, row in enumerate(grid)
                           for j, v in enumerate(row) if not ring.is_zero(v)))
    return mat, grid


def _assert_matches_oracle(mat, grid, rng):
    """rank, kernel_basis and solve agree with the longhand oracle, scalar
    types included."""
    ring = mat.ring
    pivots, _ = oracles.rref_longhand(grid, ring)
    assert linalg.rank(mat) == len(pivots)
    kernel = linalg.kernel_basis(mat)
    want = oracles.kernel_longhand(grid, ring)
    assert kernel == want
    assert [[type(v) for v in vec] for vec in kernel] == [[type(v) for v in vec] for vec in want]
    x = [ring.from_int(int(v)) for v in rng.integers(-3, 4, size=mat.cols)]
    for rhs in (oracles.apply_longhand(mat, x),
                [ring.from_int(int(v)) for v in rng.integers(-3, 4, size=mat.rows)]):
        got = linalg.solve(mat, rhs)
        assert got == oracles.solve_longhand(grid, rhs, ring)
        assert got is None or [type(v) for v in got] == [type(ring.zero())] * mat.cols


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
def test_elimination_matches_the_longhand_oracle(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(zlib.crc32((spec + "oracle").encode()))
    for _ in range(60):
        mat, grid = _block_matrix(ring, rng)
        _assert_matches_oracle(mat, grid, rng)
        _assert_matches_oracle(matrix(ring, grid), grid, rng)  # through from_grid


def test_random_rational_matrices_that_need_several_primes():
    ring = yb.Rationals()
    rng = np.random.default_rng(808)
    for _ in range(10):
        rows, cols = (int(v) for v in rng.integers(6, 13, size=2))
        grid = _scalars(ring, rng.integers(-9, 10, size=(rows, cols)))
        _assert_matches_oracle(matrix(ring, grid), grid, rng)


P31 = 2**31 - 1


@pytest.mark.parametrize("grid", [
    [[P31]],
    [[P31, 1]],
    [[1, P31], [3, 3 * P31]],               # a column P31 times another
    [[2, 0, 2 * P31], [0, P31, 1], [2, P31, 2 * P31 + 1]],
])
def test_entries_of_2_pow_31_minus_1_match_the_oracle(grid):
    ring = yb.Rationals()
    grid = _scalars(ring, grid)
    _assert_matches_oracle(matrix(ring, grid), grid, np.random.default_rng(0))


def test_entries_beyond_int64_are_certified():
    ring = yb.Rationals()
    grid = _scalars(ring, [[2**70, 3, 1], [1, 2**65, 5], [2**70 + 1, 2**65 + 3, 6]])
    grid[1][2], grid[2][2] = Fraction(5, 3), Fraction(8, 3)  # row 2 = row 0 + row 1
    _assert_matches_oracle(matrix(ring, grid), grid, np.random.default_rng(1))


def test_an_elimination_that_leaves_int64_matches_the_oracle():
    # every entry fits in int64, but row * pivot - f * (pivot row) with
    # pivots near 2^40 does not: the kernel must switch to Python ints
    ring = yb.Rationals()
    rng = np.random.default_rng(40)
    for _ in range(20):
        rows, cols = (int(v) for v in rng.integers(2, 6, size=2))
        signs = rng.choice([-1, 1], (rows, cols))
        ints = rng.integers(2**40 - 2**20, 2**40, size=(rows, cols)) * signs
        grid = _scalars(ring, ints)
        _assert_matches_oracle(matrix(ring, grid), grid, rng)
    reduced, _ = rings._rref_over_z(np.array([[2**40 + 1, 3], [2**40, 5]], dtype=np.int64))
    assert reduced.dtype == object


@pytest.mark.parametrize("grid", [
    [[-1, 2, 3], [2, -1, 4], [1, 1, -1]],   # unit pivots of -1
    [[-3, 2, 5], [6, -4, 1], [-9, 1, 2]],   # non-unit pivots below zero
    [[0, -2, 4], [0, 3, -6], [-5, 1, 0]],   # row 1 is -3/2 times row 0
])
def test_negative_pivots_match_the_oracle(grid):
    ring = yb.Rationals()
    _assert_matches_oracle(matrix(ring, _scalars(ring, grid)), _scalars(ring, grid),
                           np.random.default_rng(2))
    reduced, pivots = rings._rref_over_z(np.array(grid, dtype=np.int64))
    assert all(reduced[k, c] > 0 for k, c in enumerate(pivots))


def test_dividing_by_the_content_keeps_small_grids_in_int64():
    # without the division each non-unit step about squares the entries,
    # and these grids leave int64
    ring = yb.Rationals()
    rng = np.random.default_rng(64)
    for _ in range(20):
        ints = rng.integers(2, 10, size=(7, 7)) * rng.choice([-1, 1], (7, 7))
        reduced, pivots = rings._rref_over_z(ints.copy())
        assert reduced.dtype == np.int64
        want, rows = oracles.rref_longhand(_scalars(ring, ints), ring)
        assert pivots == want
        assert all(Fraction(int(reduced[k, j]), int(reduced[k, c])) == rows[c].get(j, 0)
                   for k, c in enumerate(pivots) for j in range(7))


def test_largest_elimination_prime_matches_the_oracle():
    p = linalg.MAX_PRIME
    assert (p - 1) ** 2 + (p - 1) < 2**63 <= (3037000507 - 1) ** 2 + (3037000507 - 1)
    for n in range(p + 1, 3037000507):
        with pytest.raises(ValueError):
            yb.PrimeField(n)
    ring = yb.PrimeField(p)
    rng = np.random.default_rng(31)
    for _ in range(50):
        left = rng.integers(0, p, size=(3, 2)).astype(object)
        right = rng.integers(0, p, size=(2, 4)).astype(object)
        grid = ((left @ right) % p).tolist()
        _assert_matches_oracle(matrix(ring, grid), grid, rng)


def test_primes_beyond_the_int64_bound_are_refused():
    m = matrix(yb.PrimeField(3037000507), [[1, 2], [3, 4]])
    for call in (linalg.rank, linalg.kernel_basis, lambda mat: linalg.solve(mat, [1, 1])):
        with pytest.raises(ValueError, match="F3037000507.*3037000493"):
            call(m)


def test_a_block_too_large_to_densify_is_refused(monkeypatch):
    # unit pivots clear the all-unit matrix before it reaches a block, so
    # rank meets the 2x2 block in a core over F5 (2 and 3 are not units)
    # and kernel_basis, which eliminates the whole matrix, in the original
    ones = linalg.ExactMatrix.from_coordinates(yb.PrimeField(3), 3, 3, [
        (0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 2, 1)])
    cored = linalg.ExactMatrix.from_coordinates(yb.PrimeField(5), 3, 3, [
        (0, 0, 2), (0, 1, 3), (1, 1, 2), (2, 2, 1)])
    monkeypatch.setattr(linalg, "BLOCK_CELL_LIMIT", 3)
    with pytest.raises(linalg.BlockSizeError, match="2x2 block"):
        linalg.rank(cored)
    with pytest.raises(linalg.BlockSizeError, match="2x2 block"):
        linalg.kernel_basis(ones)
    monkeypatch.setattr(linalg, "BLOCK_CELL_LIMIT", 4)
    assert linalg.rank(cored) == linalg.rank(ones) == 3
    assert linalg.kernel_basis(ones) == []


def _sample_matrices(rack, ring):
    """d^1..d^3 of the full, quasi-diagonal and diagonal complexes and of the
    rack complex.  Full and quasi-diagonal d^3 are left out on racks of size
    4 and 5 (65,536 and 390,625 rows), whose blocks take 0.1-3 s each."""
    for n in (1, 2, 3):
        for mode in ("full", "quasidiagonal", "diagonal"):
            if n < 3 or rack.size < 4 or mode == "diagonal":
                yield yb.coboundary_matrix(rack, ring, n, mode)
        yield yb.rack_coboundary_matrix(rack, ring, n)


def test_unit_pivots_give_the_block_rank_on_every_sample_complex():
    front = blocks = 0.0
    for rack in small_rack_sample():
        for spec in ("F2", "F3", "F5", "Q"):
            for m in _sample_matrices(rack, yb.parse_ring(spec)):
                start = time.perf_counter()
                got = linalg.rank(m)
                middle = time.perf_counter()
                want = len(linalg._reduced_form(m).pivots)
                front += middle - start
                blocks += time.perf_counter() - middle
                assert got == want, (rack.table, spec, m.rows, m.cols)
    # the front end and its core take 0.86 s against 1.96 s for the blocks
    # alone on a 2-vCPU VM; a per-pivot Python loop would not
    assert front < blocks


def _sparse_grid(ring, rng, high=3):
    rows, cols = (int(v) for v in rng.integers(1, 13, size=2))
    ints = rng.integers(-high, high + 1, size=(rows, cols))
    ints[rng.random((rows, cols)) < 0.6] = 0
    return _scalars(ring, ints)


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q", f"F{linalg.MAX_PRIME}"])
def test_unit_pivots_on_random_sparse_grids_match_the_oracle(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(zlib.crc32((spec + "sparse").encode()))
    pivoted = 0
    for _ in range(150):
        grid = _sparse_grid(ring, rng)
        m = matrix(ring, grid)
        assert linalg.rank(m) == len(oracles.rref_longhand(grid, ring)[0])
        pivoted += _front_end(m)[0]
    assert pivoted > 300


def _front_end(m):
    """_unit_pivots as (count, core keys, core values), checked against the
    oracle that chooses each round's pivots by sorting every unit entry."""
    count, core = linalg._unit_pivots(m)
    got = (count, core._keys.tolist(), core._vals.tolist())
    assert got == oracles.unit_pivots_longhand(m), (m.rows, m.cols)
    return got


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
def test_unit_pivots_choose_the_sort_based_pivots_on_every_sample_complex(spec):
    for rack in small_rack_sample():
        for m in _sample_matrices(rack, yb.parse_ring(spec)):
            _front_end(m)


def test_unit_pivot_ties_go_to_the_first_position():
    # every unit entry costs (2 - 1)(2 - 1) = 1, and (1, 1) = 3 is no unit:
    # row 0 keeps (0, 0) over (0, 1), column 0 keeps (0, 0) over (1, 0) and
    # column 2 keeps (2, 2) over (3, 2).  The core is then 3 - 1 = 2 at
    # (1, 1), no unit, while 1 - 1 cancels at (3, 3).  Pivoting on (1, 0)
    # instead would leave 1 - 3 = 3 at (0, 1).
    m = matrix(yb.PrimeField(5), [[1, 1, 0, 0], [1, 3, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    assert _front_end(m) == (2, [1 * 4 + 1], [2])


def test_a_schur_round_that_would_leave_int64_matches_the_oracle():
    # +-1 pivots next to entries near 2^40: a product a * b near 2^80 would
    # wrap in int64, so the rounds stop and the blocks take Python ints
    ring = yb.Rationals()
    rng = np.random.default_rng(4040)
    for _ in range(30):
        ints = rng.integers(2**40 - 2**20, 2**40, size=(6, 6)) * rng.choice([-1, 1], (6, 6))
        ints[rng.random((6, 6)) < 0.3] = 0
        for i, j in zip(rng.permutation(6)[:3], rng.permutation(6)[:3]):
            ints[i, j] = rng.choice([-1, 1])
        grid = _scalars(ring, ints)
        assert linalg.rank(matrix(ring, grid)) == len(oracles.rref_longhand(grid, ring)[0])
    # two products of 2^31 * 2^31 each fit, but their sum in one cell does not
    grid = _scalars(ring, [[1, 0, 2**31], [0, 1, 2**31], [2**31, 2**31, 0]])
    count, core = linalg._unit_pivots(matrix(ring, grid))
    assert count == 0 and core.nnz() == 6
    assert linalg.rank(matrix(ring, grid)) == 3


def test_the_core_over_q_holds_fractions():
    # the rounds run on integer rows, but the core is a matrix over Q again;
    # 3 == Fraction(3), so only the type of each value shows this
    ring = yb.Rationals()
    stopped = matrix(ring, _scalars(ring, [[1, 0, 2**31], [0, 1, 2**31], [2**31, 2**31, 0]]))
    for m, pivots, nnz in ((yb.coboundary_matrix(yb.catalog.dihedral3(), ring, 3), 655, 16),
                           (stopped, 0, 6)):
        count, core = linalg._unit_pivots(m)
        assert (count, core.nnz()) == (pivots, nnz)
        items = list(core.nonzero_items())
        assert all(type(v) is Fraction for _, v in items)
        assert all(type(core.entry(i, j)) is Fraction for (i, j), _ in items)


@pytest.mark.parametrize("spec, cells", [("F2", 0), ("Q", 1024)])
def test_full_h3_of_dihedral4_reaches_only_small_blocks(monkeypatch, spec, cells):
    # a count, not a timing: without the unit pivots the largest block of
    # this d^3 is 3840 x 448
    seen = []
    for name in ("_rref_mod_p", "_rref_over_z"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda grid, *args, kernel=kernel:
                            seen.append(grid.size) or kernel(grid, *args))
    ring = yb.parse_ring(spec)
    assert yb.cohomology_dim(yb.catalog.dihedral4(), ring, 3, "full") == {"F2": 96, "Q": 64}[spec]
    assert max(seen, default=0) <= cells


def _layout_grid(ring):
    """A grid in the ring's layout with unreduced and vanishing entries."""
    if isinstance(ring, yb.Rationals):
        grid = ring.zeros(2, 3)
        grid[0, 0], grid[1, 1], grid[1, 2] = Fraction(1, 2), Fraction(-3), Fraction(4, 6)
        return grid
    if isinstance(ring, yb.SeriesRing):
        grid = np.zeros((3, 2, 2), dtype=np.int64)
        grid[:, 0, 0], grid[:, 0, 1], grid[:, 1, 1] = [4, -1, 3], [3, 6, -3], [0, 0, 5]
        return grid
    if isinstance(ring, yb.PadicRing):
        return np.array([[10, 9], [-1, 0]], dtype=np.int64)
    return np.array([[7, 0, -1], [0, 5, 12]], dtype=np.int64)


# the text a dense grid printed while ExactMatrix still stored one
PINNED_DUMPS = {
    "F5": "2 3 5\n0 0 2\n0 2 4\n1 2 2\n",
    "Q": "2 3 0\n0 0 1/2\n1 1 -3\n1 2 2/3\n",
    "F3[h]/h^3": "2 2 3\n0 0 1,2,0\n1 1 0,0,2\n",
    "Z/3^2": "2 2 3\n0 0 1\n1 0 8\n",
}


@pytest.mark.parametrize("spec", sorted(PINNED_DUMPS))
def test_from_grid_dumps_the_pinned_text(spec):
    ring = yb.parse_ring(spec)
    mat = linalg.ExactMatrix.from_grid(ring, _layout_grid(ring))
    assert linalg.dump_matrix(mat) == PINNED_DUMPS[spec]
    for (i, j), v in mat.nonzero_items():
        assert mat.entry(i, j) == v and not ring.is_zero(v)
        assert ring.scalar_parse(ring.scalar_str(v)) == v  # stored reduced


@pytest.mark.parametrize("spec, triples, want", [
    ("F5", [(0, 0, 7), (0, 1, -1), (0, 2, 5)], [2, 4, 0]),
    ("Z/3^2", [(0, 0, 10), (0, 1, -1), (0, 1, 1)], [1, 0, 0]),
    ("F3[h]/h^2", [(0, 0, (4, -1)), (0, 2, (3, 6))], [(1, 2), (0, 0), (0, 0)]),
])
def test_from_coordinates_stores_residues(spec, triples, want):
    ring = yb.parse_ring(spec)
    mat = linalg.ExactMatrix.from_coordinates(ring, 1, 3, triples)
    assert [mat.entry(0, j) for j in range(3)] == want
    nonzero = [((0, j), v) for j, v in enumerate(want) if not ring.is_zero(v)]
    assert list(mat.nonzero_items()) == nonzero
    assert linalg.dump_matrix(mat).splitlines()[1:] == [
        f"0 {j} {ring.scalar_str(v)}" for (_, j), v in nonzero]


def test_entry_refuses_a_cell_outside_the_matrix():
    # (0, 2) has the flat position 0 * 2 + 2 of the stored cell (1, 0)
    mat = matrix(yb.PrimeField(5), [[0, 0], [3, 0]])
    assert mat.entry(1, 0) == 3 and mat.entry(0, 1) == 0
    for i, j in ((0, 2), (0, -1), (2, 0), (-1, 0), (1, 2)):
        with pytest.raises(IndexError, match="outside 2x2"):
            mat.entry(i, j)


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
def test_from_grid_agrees_with_from_coordinates(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(zlib.crc32((spec + "grid").encode()))
    for _ in range(100):
        rows, cols = (int(v) for v in rng.integers(1, 31, size=2))
        grid = rng.integers(-9, 10, size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        layout = ring.from_int_matrix(grid) if isinstance(ring, yb.Rationals) else grid
        dense = linalg.ExactMatrix.from_grid(ring, layout)
        coords = linalg.ExactMatrix.from_coordinates(
            ring, rows, cols, ((i, j, int(v)) for (i, j), v in np.ndenumerate(grid)))
        assert list(dense.nonzero_items()) == list(coords.nonzero_items())
        assert linalg.rank(dense) == linalg.rank(coords)


def test_dump_and_load_round_trip():
    ring = yb.Rationals()
    m = matrix(ring, [[Fraction(1, 2), 0], [0, Fraction(-3)]])
    text = linalg.dump_matrix(m)
    assert text.splitlines()[0] == "2 2 0"
    assert "1/2" in text
    back = linalg.load_matrix(text, ring)
    assert back.entry(0, 0) == Fraction(1, 2)
    assert back.entry(1, 1) == Fraction(-3)

    F5 = yb.PrimeField(5)
    m5 = matrix(F5, [[0, 3], [4, 0]])
    back5 = linalg.load_matrix(linalg.dump_matrix(m5), F5)
    assert back5.entry(0, 1) == 3 and back5.entry(1, 0) == 4
    assert back5.ring == F5


@pytest.mark.parametrize("header", ["-2 -3 0", "-1 2 0", "2 -1 0"])
def test_load_refuses_negative_dimensions(header):
    with pytest.raises(ValueError, match="negative dimensions"):
        linalg.load_matrix(header + "\n", yb.Rationals())


@pytest.mark.parametrize("spec", ["F5", "Q", "F5[h]/h^2", "Z/5^2"])
def test_load_refuses_a_dump_for_another_modulus(spec):
    with pytest.raises(ValueError, match="does not match ring"):
        linalg.load_matrix(PINNED_DUMPS["Z/3^2"], yb.parse_ring(spec))
    ring = yb.parse_ring("Z/3^2")
    assert linalg.dump_matrix(linalg.load_matrix(PINNED_DUMPS["Z/3^2"], ring)) == \
        PINNED_DUMPS["Z/3^2"]
