import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ybrack as yb
from ybrack import cochains, linalg
from ybrack.cochains import sub as csub, cochain_to_vector
from ybrack.indexing import decode_tuple

import oracles
from conftest import cochain_dict, random_cochain, sample_degrees, small_rack_sample

F2 = yb.PrimeField(2)
F3 = yb.PrimeField(3)
F5 = yb.PrimeField(5)
QQ = yb.Rationals()


def assert_matches_oracle(f, i, rng, samples=120):
    """Compare the vectorised partial coboundary against direct substitution."""
    rack = f.rack
    q = rack.size
    n = f.degree
    got = yb.partial_coboundary(f, i)
    table = cochain_dict(f)
    mod = rack and (f.ring.p if hasattr(f.ring, "p") else None)
    size = q ** (n + 1)
    for _ in range(samples):
        xi = int(rng.integers(size))
        yi = int(rng.integers(size))
        xs = decode_tuple(q, xi, n + 1)
        ys = decode_tuple(q, yi, n + 1)
        want = oracles.partial_coboundary_entry(rack, table, i, xs, ys)
        have = int(got.values[xi, yi])
        if mod:
            assert (have - want) % mod == 0
        else:
            assert have == want


def test_partial_coboundary_matches_direct_substitution():
    rng = np.random.default_rng(100)
    for rack in small_rack_sample():
        for ring in (F2, F5, QQ):
            for n in (1, 2):
                f = random_cochain(rack, n, ring, rng)
                for i in range(n + 1):
                    assert_matches_oracle(f, i, rng, samples=40)


def test_partial_coboundary_single_indicator_oracle():
    # the indicator of (x = a -> y = a) on dihedral-3, all partials at all entries
    rack = yb.catalog.dihedral3()
    f = yb.cochain_from_entries(rack, 1, QQ, {((0,), (0,)): 1})
    table = cochain_dict(f)
    for i in (0, 1):
        got = yb.partial_coboundary(f, i)
        for xi in range(9):
            for yi in range(9):
                xs = decode_tuple(3, xi, 2)
                ys = decode_tuple(3, yi, 2)
                assert int(got.values[xi, yi]) == \
                    oracles.partial_coboundary_entry(rack, table, i, xs, ys)


def test_trivial_rack_coboundary_vanishes():
    rack = yb.trivial_rack(4)
    rng = np.random.default_rng(4)
    for n in (1, 2):
        f = random_cochain(rack, n, F3, rng)
        for i in range(n + 1):
            assert yb.partial_coboundary(f, i).is_zero()
        assert yb.coboundary(f).is_zero()


def test_coboundary_squared_is_zero():
    rng = np.random.default_rng(41)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3(), yb.trivial_rack(2)):
        for ring in (F2, F3, F5, QQ):
            for n in (1, 2):
                for _ in range(10):
                    f = random_cochain(rack, n, ring, rng)
                    assert yb.coboundary(yb.coboundary(f)).is_zero()


def test_partial_coboundaries_commute():
    # d_i d_j = d_{j+1} d_i for i <= j
    rng = np.random.default_rng(42)
    for rack in (yb.catalog.quandle3(), yb.dihedral_quandle(2)):
        for ring in (F2, F5):
            for n in (1, 2):
                f = random_cochain(rack, n, ring, rng)
                for j in range(n + 1):
                    dj = yb.partial_coboundary(f, j)
                    for i in range(j + 1):
                        lhs = yb.partial_coboundary(dj, i)
                        rhs = yb.partial_coboundary(yb.partial_coboundary(f, i), j + 1)
                        assert np.array_equal(lhs.values, rhs.values)


def test_coboundary_matrix_agrees_with_coboundary():
    rng = np.random.default_rng(43)
    for rack in small_rack_sample():
        for ring in (F2, F3, QQ):
            for n in sample_degrees(rack):
                mat = yb.coboundary_matrix(rack, ring, n)
                for _ in range(2):
                    f = random_cochain(rack, n, ring, rng)
                    via_matrix = oracles.apply_longhand(mat, cochain_to_vector(f))
                    direct = cochain_to_vector(yb.coboundary(f))
                    assert via_matrix == direct


def test_restricted_coboundary_matrix_is_the_submatrix():
    for rack in small_rack_sample():
        for ring in (F3, QQ):
            for n in sample_degrees(rack):
                full = yb.coboundary_matrix(rack, ring, n)
                for mode in ("diagonal", "quasidiagonal"):
                    restricted = yb.coboundary_matrix(rack, ring, n, subcomplex=mode)
                    want = full.submatrix(yb.pair_basis(rack, n + 1, mode),
                                          yb.pair_basis(rack, n, mode))
                    assert (restricted.rows, restricted.cols) == (want.rows, want.cols)
                    assert list(restricted.nonzero_items()) == list(want.nonzero_items())


def test_coboundary_matrix_composition_is_zero():
    for rack in (yb.catalog.quandle3(),):
        for ring in (F2, F5):
            d1 = yb.coboundary_matrix(rack, ring, 1)
            d2 = yb.coboundary_matrix(rack, ring, 2)
            for col in range(d1.cols):
                e = [ring.zero()] * d1.cols
                e[col] = ring.one()
                image = oracles.apply_longhand(d2, oracles.apply_longhand(d1, e))
                assert all(ring.is_zero(v) for v in image)


def test_coboundary_matrix_trivial_rack_is_zero():
    mat = yb.coboundary_matrix(yb.trivial_rack(3), F2, 2)
    assert mat.nnz() == 0


def test_coboundary_matrix_shape_and_row_sparsity():
    # every output entry is a signed sum of at most 2(n+1) input entries
    for rack, n in [(yb.catalog.quandle3(), 1), (yb.catalog.dihedral4(), 2)]:
        mat = yb.coboundary_matrix(rack, F2, n)
        assert (mat.rows, mat.cols) == (rack.size ** (2 * (n + 1)), rack.size ** (2 * n))
        per_row = {}
        for (i, _), _v in mat.nonzero_items():
            per_row[i] = per_row.get(i, 0) + 1
        assert max(per_row.values()) <= 2 * (n + 1)


def test_size_guard(monkeypatch):
    monkeypatch.setattr(cochains, "MATRIX_ENTRY_CAP", 10)
    with pytest.raises(yb.SizeGuardError):
        yb.coboundary_matrix(yb.catalog.dihedral4(), F2, 2)


def test_cohomology_dims_match_reported_values():
    assert yb.cohomology_dim(yb.catalog.quandle3(), F2, 2) == 9
    assert yb.cohomology_dim(yb.catalog.dihedral4(), F2, 2) == 20
    assert yb.cohomology_dim(yb.catalog.dihedral4(), F3, 2) == 16
    assert yb.cohomology_dim(yb.catalog.dihedral4(), F5, 2) == 16


@pytest.mark.parametrize("spec,dimension", [("F2", 96), ("Q", 64)])
def test_full_and_quasidiagonal_h3_agree_on_dihedral4(spec, dimension):
    # the paper's theorem at degree 3, on the full 65536 x 4096 coboundary
    rack, ring = yb.catalog.dihedral4(), yb.parse_ring(spec)
    assert yb.cohomology_dim(rack, ring, 3) == dimension
    assert yb.cohomology_dim(rack, ring, 3, subcomplex="quasidiagonal") == dimension


def test_projections_are_idempotent_and_commute_with_d():
    rng = np.random.default_rng(44)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral4()):
        for ring in (F2, F3):
            for _ in range(25):
                f = random_cochain(rack, 2, ring, rng)
                for project in (yb.project_diagonal, yb.project_quasidiagonal):
                    pf = project(f)
                    assert np.array_equal(project(pf).values, pf.values)
                    lhs = yb.coboundary(pf)
                    rhs = project(yb.coboundary(f))
                    assert np.array_equal(lhs.values, rhs.values)
                assert yb.project_diagonal(f).is_diagonal()
                assert yb.project_quasidiagonal(f).is_quasidiagonal()


def test_projection_fixes_its_image_and_faithful_collapse():
    rng = np.random.default_rng(45)
    rack = yb.catalog.dihedral3()  # faithful
    for _ in range(25):
        f = random_cochain(rack, 2, F5, rng)
        assert np.array_equal(yb.project_quasidiagonal(f).values,
                              yb.project_diagonal(f).values)


def test_quasidiagonal_on_trivial_rack_is_identity():
    rng = np.random.default_rng(46)
    f = random_cochain(yb.trivial_rack(3), 2, F2, rng)
    assert np.array_equal(yb.project_quasidiagonal(f).values, f.values)


def test_rack_coboundary_against_oracle():
    rng = np.random.default_rng(47)
    for rack in (yb.catalog.dihedral3(), yb.catalog.quandle3()):
        for n in (1, 2):
            size = rack.size ** n
            values = rng.integers(-9, 10, size=size)
            lam = yb.RackCochain(rack, n, QQ, values)
            table = {decode_tuple(rack.size, i, n): int(values[i])
                     for i in range(size) if values[i]}
            out = yb.rack_coboundary(lam)
            for code in range(rack.size ** (n + 1)):
                args = decode_tuple(rack.size, code, n + 1)
                assert int(out.values[code]) == \
                    oracles.rack_coboundary_entry(rack, table, args)


def test_rack_coboundary_matrix_against_oracle():
    # column c of the matrix is the rack coboundary of the indicator of c
    for rack in small_rack_sample():
        q = rack.size
        for ring in (F3, QQ):
            for n in sample_degrees(rack):
                mat = yb.rack_coboundary_matrix(rack, ring, n)
                assert (mat.rows, mat.cols) == (q ** (n + 1), q**n)
                got = {pos: v for pos, v in mat.nonzero_items()}
                for col in range(q**n):
                    table = {decode_tuple(q, col, n): 1}
                    for row in range(q ** (n + 1)):
                        want = oracles.rack_coboundary_entry(
                            rack, table, decode_tuple(q, row, n + 1))
                        assert ring.eq(got.get((row, col), ring.zero()), ring.from_int(want))


def test_rack_coboundary_squared_is_zero():
    rng = np.random.default_rng(48)
    for rack in (yb.catalog.dihedral3(), yb.catalog.dihedral4()):
        for n in (1, 2):
            lam = yb.RackCochain(rack, n, F3,
                                 rng.integers(0, 3, size=rack.size ** n))
            assert yb.rack_coboundary(yb.rack_coboundary(lam)).is_zero()


def test_trivial_rack_rack_coboundary_vanishes():
    rack = yb.trivial_rack(3)
    rng = np.random.default_rng(49)
    lam = yb.RackCochain(rack, 2, F2, rng.integers(0, 2, size=9))
    assert yb.rack_coboundary(lam).is_zero()


def test_diagonal_restriction_equals_rack_coboundary():
    # under lambda(x...) = f[x...;x...], d restricted to diagonal cochains
    # is the rack coboundary
    rng = np.random.default_rng(50)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3()):
        for _ in range(10):
            lam = yb.RackCochain(rack, 2, F3, rng.integers(0, 3, size=rack.size ** 2))
            f = yb.from_rack_cochain(lam)
            df = yb.coboundary(f)
            assert df.is_diagonal()
            assert np.array_equal(yb.diagonal_part(df).values,
                                  yb.rack_coboundary(lam).values)


def test_rack_cohomology_dimensions():
    assert yb.rack_cohomology_dim(yb.catalog.dihedral3(), F2, 2) == 1
    assert yb.rack_cohomology_dim(yb.catalog.dihedral3(), F5, 2) == 1
    # one-element trivial rack: C^n has dimension 1 and delta = 0
    assert yb.rack_cohomology_dim(yb.trivial_rack(1), F2, 2) == 1


def test_identity_cochain_is_entropic():
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3()):
        ident = yb.identity_cochain(rack, 2, F3)
        assert yb.is_entropic(ident)


def test_trivial_rack_everything_entropic():
    rng = np.random.default_rng(51)
    f = random_cochain(yb.trivial_rack(4), 2, F2, rng)
    assert yb.is_entropic(f)


def test_entropic_equals_quasidiagonal_and_equivariant():
    # both inclusions, checked on whole spaces for |Q| <= 4:
    # the joint kernel of all partial coboundaries equals the span of the
    # orbit sums of quasi-diagonal basis pairs under the coordinatewise
    # inner action
    from ybrack.indexing import pair_mask, tuple_coordinates
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3(), yb.catalog.dihedral4()):
        ring = F2
        n = 2
        side = rack.size ** n
        # joint kernel of all partial coboundaries, assembled column by column
        columns = []
        for code in range(side * side):
            grid = np.zeros((side, side), dtype=np.int64)
            grid[code // side, code % side] = 1
            f = yb.Cochain(rack, n, ring, grid)
            stacked = np.concatenate(
                [yb.partial_coboundary(f, i).values.reshape(-1) for i in range(n + 1)])
            columns.append(stacked % ring.p)
        big = np.array(columns, dtype=np.int64).T
        mat = linalg.ExactMatrix.from_grid(ring, big)
        kernel = linalg.kernel_basis(mat)
        # each kernel vector is quasi-diagonal and fully equivariant
        for vec in kernel:
            f = yb.vector_to_cochain(rack, n, ring, vec)
            assert f.is_quasidiagonal()
            assert yb.is_fully_equivariant(f)
            assert yb.is_entropic(f)
        # orbit sums of quasi-diagonal pairs span the equivariant
        # quasi-diagonal space; each must be entropic, and the dimensions match
        gens = {rack.column(a) for a in range(rack.size)}
        coords = tuple_coordinates(rack.size, n)
        seen = set()
        orbit_count = 0
        qd = pair_mask(rack, n, "quasidiagonal")
        for xi in range(side):
            for yi in range(side):
                if not qd[xi, yi] or (xi, yi) in seen:
                    continue
                orbit = {(xi, yi)}
                frontier = [(xi, yi)]
                while frontier:
                    cx, cy = frontier.pop()
                    for j in range(n):
                        w = rack.size ** (n - 1 - j)
                        for gen in gens:
                            nx = cx + (gen[cx // w % rack.size] - cx // w % rack.size) * w
                            ny = cy + (gen[cy // w % rack.size] - cy // w % rack.size) * w
                            if (nx, ny) not in orbit:
                                orbit.add((nx, ny))
                                frontier.append((nx, ny))
                seen |= orbit
                orbit_count += 1
                grid = np.zeros((side, side), dtype=np.int64)
                for cx, cy in orbit:
                    grid[cx, cy] = 1
                f = yb.Cochain(rack, n, ring, grid)
                assert yb.is_entropic(f)
        assert orbit_count == len(kernel)


def test_pullback_identity():
    rack = yb.catalog.quandle3()
    rng = np.random.default_rng(52)
    f = random_cochain(rack, 2, F2, rng)
    back = yb.pullback(tuple(range(3)), f, rack)
    assert np.array_equal(back.values, f.values)


def test_pullback_rejects_non_homomorphisms():
    rack = yb.catalog.dihedral3()
    rng = np.random.default_rng(53)
    f = random_cochain(rack, 1, F2, rng)
    with pytest.raises(ValueError):
        yb.pullback((0, 0, 1), f, rack)  # not a homomorphism


def test_non_functoriality_orbit_quotient():
    # pull back along the orbit projection of a faithful rack: the quotient
    # coboundary vanishes but d(pullback) does not
    rack = yb.catalog.dihedral3()
    quotient, projection = yb.orbit_quotient(rack)
    f = yb.cochain_from_entries(quotient, 1, QQ, {((0,), (0,)): 1})
    assert yb.coboundary(f).is_zero()  # trivial rack upstairs
    pulled = yb.pullback(projection, f, rack)
    d_pulled = yb.coboundary(pulled)
    assert not d_pulled.is_zero()
    # the displayed value: d(phi* f)[(x,y);(x,z)] = -f[phi(y); phi(z)] when
    # x^y != x^z and y != z
    x, y, z = 0, 1, 2
    assert rack.op(x, y) != rack.op(x, z)
    assert int(d_pulled.entry((x, y), (x, z))) == -1


def test_non_functoriality_trivial_extension():
    # same demonstration through a trivial extension, exercising the
    # quasi-diagonal direction: y and z sit in one behaviour class
    base = yb.catalog.dihedral3()
    ext, projection = yb.trivial_extension(base, 2)
    rng = np.random.default_rng(54)
    fvals = rng.integers(-5, 6, size=(3, 3))
    f = yb.Cochain(base, 1, QQ, fvals)
    pulled = yb.pullback(projection, f, ext)
    xbar, ybar = 0, 1
    assert base.op(xbar, ybar) != xbar
    x = xbar * 2      # (xbar, 1) in fibre coordinates
    y = ybar * 2      # (ybar, 1)
    z = ybar * 2 + 1  # (ybar, 2), behaviourally equivalent to y
    part = yb.behavior_partition(ext)
    assert part.class_index[y] == part.class_index[z] and y != z
    d_pulled = yb.coboundary(pulled)
    assert int(d_pulled.entry((x, y), (x, z))) == 0
    dfbar = yb.coboundary(f)
    pulled_df = yb.pullback(projection, dfbar, ext)
    expected = int(fvals[base.op(xbar, ybar), base.op(xbar, ybar)] - fvals[xbar, xbar])
    assert int(pulled_df.entry((x, y), (x, z))) == expected
    # the naturality defect is nonzero as soon as f separates the orbit of xbar
    assert expected != 0 or True  # witness asserted separately below


def test_non_functoriality_produces_nonzero_witness():
    base = yb.catalog.dihedral3()
    ext, projection = yb.trivial_extension(base, 2)
    f = yb.cochain_from_entries(base, 1, QQ, {((base.op(0, 1),), (base.op(0, 1),)): 1})
    pulled = yb.pullback(projection, f, ext)
    defect = csub(yb.coboundary(pulled), yb.pullback(projection, yb.coboundary(f), ext))
    assert not defect.is_zero()
    assert int(defect.entry((0, 2), (0, 3))) == -1  # x=(0,1), y=(1,1), z=(1,2)


def test_dump_cochain_format():
    rack = yb.catalog.quandle3()
    f = yb.cochain_from_entries(rack, 2, F5, {((0, 1), (2, 0)): 3})
    text = yb.dump_cochain(f)
    lines = text.strip().splitlines()
    assert lines[0] == "degree 2 ring F5"
    assert lines[1] == "0 1 2 0 3"


@pytest.mark.parametrize("spec", ["F3[h]/h^2", "Z/3^2"])
def test_cochains_refuse_truncated_coefficients(spec):
    ring = yb.parse_ring(spec)
    rack = yb.catalog.quandle3()
    with pytest.raises(yb.CoefficientError):
        yb.Cochain(rack, 1, ring, ring.zeros(3, 3))
    with pytest.raises(yb.CoefficientError):
        yb.zero_cochain(rack, 1, ring)
    with pytest.raises(yb.CoefficientError):
        yb.cochain_from_entries(rack, 1, ring, {((0,), (1,)): ring.one()})


def test_cohomology_degree_bounds():
    rack = yb.catalog.quandle3()
    with pytest.raises(ValueError):
        yb.cohomology_dim(rack, F2, 1)
    with pytest.raises(ValueError):
        yb.cohomology_dim(rack, F2, 4)  # above the default degree cap
    # degree 3 is inside the supported range
    assert yb.cohomology_dim(rack, F2, 3) >= 0


# -- the chunked apply ---------------------------------------------------------------

APPLY_RINGS = [F3, yb.PrimeField(linalg.MAX_PRIME), QQ]


def _unreduced(rack, n, ring, rng):
    """Entries far outside [0, p) on both sides, or signed integers over Q."""
    side = rack.size**n
    bound = 3 * getattr(ring, "p", 10**6)
    return yb.Cochain(rack, n, ring, rng.integers(-bound, bound, size=(side, side)))


def _applies(f):
    return [yb.partial_coboundary(f, i).values for i in range(f.degree + 1)] + \
        [yb.coboundary(f).values]


@pytest.mark.parametrize("ring", APPLY_RINGS, ids=str)
def test_chunked_apply_is_bit_for_bit_the_same(monkeypatch, ring):
    rng = np.random.default_rng(66)
    for rack in small_rack_sample():
        for n in sample_degrees(rack):
            f = _unreduced(rack, n, ring, rng)
            before = f.values.copy()
            runs = []
            for pairs in (1, 2**40):  # one key class per chunk; one chunk for everything
                monkeypatch.setattr(cochains, "CHUNK_PAIRS", pairs)
                runs.append(_applies(f))
            assert np.array_equal(f.values, before)
            for one_class, one_chunk in zip(*runs):
                assert one_class.dtype == one_chunk.dtype == np.int64
                assert np.array_equal(one_class, one_chunk)
            mod = getattr(ring, "p", None)
            if mod:  # an unreduced input gives the apply of its residues, reduced
                residues = yb.Cochain(rack, n, ring, f.values % mod)
                for got, want in zip(runs[0], _applies(residues)):
                    assert np.array_equal(got, want) and got.min() >= 0 and got.max() < mod


@pytest.mark.parametrize("ring", APPLY_RINGS, ids=str)
@pytest.mark.parametrize("rack", [yb.trivial_rack(4), yb.catalog.dihedral4()],
                         ids=["trivial4", "dihedral4"])
def test_degree_four_apply_matches_the_oracle(rack, ring):
    # degree 4 -> 5 on four elements: 2^16 pairs per key class, so the
    # default chunk holds one class and the apply walks it class by class
    rng = np.random.default_rng(4)
    f = _unreduced(rack, 4, ring, rng)
    table = cochain_dict(f)
    mod = getattr(ring, "p", None)
    size = 4**5
    for i in range(5):
        got = yb.partial_coboundary(f, i).values
        touched = np.flatnonzero(got)
        codes = np.concatenate([rng.integers(size * size, size=100),
                                rng.choice(touched, 100) if touched.size else []])
        for code in codes.astype(np.int64):
            xi, yi = divmod(int(code), size)
            want = oracles.partial_coboundary_entry(rack, table, i, decode_tuple(4, xi, 5),
                                                    decode_tuple(4, yi, 5))
            assert int(got[xi, yi]) == (want % mod if mod else want)
    got = yb.coboundary(f).values
    for code in rng.choice(np.flatnonzero(got) if got.any() else [0], 200):
        xi, yi = divmod(int(code), size)
        want = oracles.coboundary_entry(rack, table, decode_tuple(4, xi, 5), decode_tuple(4, yi, 5))
        assert int(got[xi, yi]) == (want % mod if mod else want)


def test_reduce_writes_through_strided_views():
    # larger than one chunk, so the reduction runs slice by slice
    rng = np.random.default_rng(14)
    base = rng.integers(-2**62, 2**62, size=(300, 300))
    want = [[int(v) % 5 for v in row] for row in base.T.tolist()]
    view = base.T
    assert view.size > cochains.CHUNK_PAIRS and not view.flags.c_contiguous
    assert cochains._reduce(view, F5) is view
    assert view.tolist() == want
    strided = rng.integers(-2**62, 2**62, size=(600, 900))
    want = [[int(v) % 5 for v in row] for row in strided[::2, ::3].tolist()]
    cochains._reduce(strided[::2, ::3], F5)
    assert strided[::2, ::3].tolist() == want


@pytest.mark.parametrize("p", [2, 5, linalg.MAX_PRIME])
@pytest.mark.parametrize("size", [10, 3000])  # one remainder; floor division
def test_reduce_is_exact_at_the_edge_of_its_range(p, size):
    edge = 2**63 - p - 1
    values = np.resize(np.array([edge, -edge, edge - 1, 1 - edge, 0, -1], dtype=np.int64), size)
    want = [v % p for v in values.tolist()]
    assert cochains._reduce(values, yb.PrimeField(p)).tolist() == want


@pytest.mark.parametrize("ring", [F5, QQ], ids=str)
@pytest.mark.parametrize("apply", ["coboundary", "partial_coboundary"])
def test_degree_four_apply_allocates_little_beyond_its_output(ring, apply):
    # the output is 1024 x 1024 int64, 8 MiB; no full-size temporary is made
    rack = yb.catalog.dihedral4()
    f = _unreduced(rack, 4, ring, np.random.default_rng(5))
    calls = [lambda: yb.coboundary(f)] if apply == "coboundary" else \
        [lambda i=i: yb.partial_coboundary(f, i) for i in range(5)]
    for call in calls:
        call()  # tabulates the key classes outside the measurement
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.35 * out.values.nbytes, (peak, out.values.nbytes)


# -- int64 range over Q ------------------------------------------------------------------

def test_rational_sums_that_could_overflow_are_refused():
    rack = yb.catalog.dihedral3()
    rng = np.random.default_rng(62)
    f = yb.Cochain(rack, 2, QQ, rng.integers(2**62, 2**63 - 1, size=(9, 9)))
    for apply in (yb.coboundary, lambda g: yb.partial_coboundary(g, 1),
                  lambda g: yb.level_projection(g, 0), lambda g: cochains.add(g, g),
                  lambda g: cochains.sub(g, g), lambda g: cochains.scale(2, g)):
        with pytest.raises(OverflowError, match=str(2**63 - 1)):
            apply(f)
    chain = yb.Chain(rack, 2, QQ, f.values)
    with pytest.raises(OverflowError):
        yb.boundary(chain)


def test_rational_sums_just_inside_int64_are_exact():
    rack = yb.catalog.dihedral3()
    rng = np.random.default_rng(63)
    big = (2**63 - 1) // 6          # d on degree 2 sums 6 entries
    values = rng.integers(-big, big + 1, size=(9, 9))
    values[0, 0], values[4, 5] = big, -big
    f = yb.Cochain(rack, 2, QQ, values)
    table = cochain_dict(f)
    got = yb.coboundary(f).values
    for xi in range(27):
        for yi in range(27):
            xs, ys = decode_tuple(3, xi, 3), decode_tuple(3, yi, 3)
            assert int(got[xi, yi]) == oracles.coboundary_entry(rack, table, xs, ys)
    values[0, 0] = big + 1
    with pytest.raises(OverflowError):
        yb.coboundary(yb.Cochain(rack, 2, QQ, values))


def test_rational_overflow_is_refused_under_python_O():
    script = textwrap.dedent("""
        import numpy as np
        import ybrack as yb
        f = yb.Cochain(yb.catalog.dihedral3(), 2, yb.Rationals(),
                       np.full((9, 9), 2**62, dtype=np.int64))
        try:
            yb.coboundary(f)
        except OverflowError:
            print(__debug__, "refused")
        else:
            print(__debug__, "returned")
    """)
    src = Path(yb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.split() == ["False", "refused"]


# -- the checked containers ------------------------------------------------------------

def test_every_container_refuses_a_float_grid():
    rack = yb.catalog.dihedral3()
    for make, shape in ((yb.Cochain, (9, 9)), (yb.Chain, (9, 9)), (yb.RackCochain, (9,))):
        with pytest.raises(TypeError, match="int64"):
            make(rack, 2, F3, np.zeros(shape))
        assert make(rack, 2, F3, np.zeros(shape, dtype=np.int64)).is_zero()


def test_containers_refuse_the_wrong_shape_or_ring():
    rack = yb.catalog.dihedral3()
    with pytest.raises(ValueError, match=r"expected \(9, 9\)"):
        yb.Chain(rack, 2, F3, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match=r"expected \(9,\)"):
        yb.RackCochain(rack, 2, F3, np.zeros(8, dtype=np.int64))
    with pytest.raises(yb.CoefficientError):
        yb.RackCochain(rack, 2, yb.parse_ring("F3[h]/h^2"), np.zeros(9, dtype=np.int64))


def test_containers_compare_by_value():
    rack = yb.catalog.dihedral3()
    f = cochains.cochain_from_entries(rack, 2, F3, {((0, 1), (2, 0)): 1})
    assert f == cochains.cochain_from_entries(rack, 2, F3, {((0, 1), (2, 0)): 4})
    assert f != cochains.zero_cochain(rack, 2, F3)
    assert f != cochains.cochain_from_entries(rack, 2, F5, {((0, 1), (2, 0)): 1})
    assert f != cochains.cochain_from_entries(yb.catalog.quandle3(), 2, F3,
                                              {((0, 1), (2, 0)): 1})
    assert cochains.zero_cochain(rack, 1, F3) != cochains.zero_cochain(rack, 1, QQ)
    # a chain and a cochain on the same grid are different objects
    assert yb.Chain(rack, 2, F3, f.values) != f
    assert f != yb.Chain(rack, 2, F3, f.values)
    lam = yb.RackCochain(rack, 2, F3, np.arange(9, dtype=np.int64) % 3)
    assert lam == yb.RackCochain(rack, 2, F3, np.arange(9, dtype=np.int64) % 3)
    assert lam != yb.RackCochain(rack, 2, F3, np.zeros(9, dtype=np.int64))


def test_containers_are_not_hashable():
    rack = yb.catalog.dihedral3()
    for value in (cochains.zero_cochain(rack, 2, F3),
                  yb.Chain(rack, 2, F3, np.zeros((9, 9), dtype=np.int64)),
                  yb.RackCochain(rack, 2, F3, np.zeros(9, dtype=np.int64))):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_chains_and_rack_cochains_share_the_cochain_checks():
    # one base holds the fields and the checks; a chain is not a cochain
    assert not issubclass(yb.Chain, yb.Cochain)
    for cls in (yb.Chain, yb.RackCochain):
        assert "__dataclass_fields__" not in vars(cls)
        assert "entry" not in vars(cls) and "is_zero" not in vars(cls)
    assert set(yb.Chain.__dataclass_fields__) == {"rack", "degree", "ring", "values"}


@pytest.mark.parametrize("bad", [(0, 1, 2), (0, 5)])
def test_entries_refuse_tuples_that_are_not_degree_tuples(bad):
    rack = yb.catalog.dihedral3()
    f = yb.identity_cochain(rack, 2, F3)
    with pytest.raises(ValueError, match="not a 2-tuple"):
        f.entry(bad, (0, 0))
    with pytest.raises(ValueError, match="not a 2-tuple"):
        yb.cochain_from_entries(rack, 2, F3, {((0, 0), bad): 1})
    lam = yb.diagonal_part(f)
    with pytest.raises(ValueError, match="not a 2-tuple"):
        lam.entry(bad)
    assert int(f.entry((1, 2), (1, 2))) == int(lam.entry((1, 2))) == 1


@pytest.mark.parametrize("value", [Fraction(1, 2), 2.7, 2.0])
def test_entry_builders_refuse_values_with_no_integer_representative(value):
    rack = yb.catalog.dihedral3()
    with pytest.raises(ValueError, match="not an exact integer"):
        yb.cochain_from_entries(rack, 1, QQ, {((0,), (1,)): value})
    with pytest.raises(ValueError, match="not an exact integer"):
        yb.chain_from_entries(rack, 1, QQ, {((0,), (1,)): value})
    with pytest.raises(ValueError, match="not an exact integer"):
        yb.vector_to_cochain(rack, 1, QQ, [value] + [0] * 8)


def test_integral_fractions_round_trip_through_vectors():
    rack = yb.catalog.dihedral3()
    f = yb.cochain_from_entries(rack, 1, QQ, {((0,), (1,)): Fraction(-4, 2), ((2,), (2,)): 7})
    vec = cochain_to_vector(f)
    assert vec[1] == Fraction(-2)
    assert np.array_equal(yb.vector_to_cochain(rack, 1, QQ, vec).values, f.values)


@pytest.mark.parametrize("length", [8, 10])
def test_vector_to_cochain_refuses_the_wrong_length(length):
    with pytest.raises(ValueError, match="has 9 entries, got"):
        yb.vector_to_cochain(yb.catalog.dihedral3(), 1, F3, [1] * length)


def test_rack_coboundary_refuses_a_rational_sum_that_leaves_int64():
    lam = yb.RackCochain(yb.catalog.dihedral3(), 1, QQ,
                         np.array([2**62, -2**62, 0], dtype=np.int64))
    with pytest.raises(OverflowError, match=str(2**63 - 1)):
        yb.rack_coboundary(lam)


def test_rack_coboundary_refuses_int64_overflow_under_python_O():
    script = textwrap.dedent("""
        import numpy as np
        import ybrack as yb
        lam = yb.RackCochain(yb.catalog.dihedral3(), 1, yb.Rationals(),
                             np.array([2**62, -2**62, 0], dtype=np.int64))
        try:
            yb.rack_coboundary(lam)
        except OverflowError:
            print(__debug__, "refused")
        else:
            print(__debug__, "returned")
    """)
    src = Path(yb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.split() == ["False", "refused"]


def test_rack_coboundary_reduces_its_input_over_a_prime_field():
    rack = yb.catalog.dihedral3()
    values = np.array([-2**62] + [2**62] * 8, dtype=np.int64)
    got = yb.rack_coboundary(yb.RackCochain(rack, 2, F3, values)).values
    want = yb.rack_coboundary(yb.RackCochain(rack, 2, F3, values % 3)).values
    assert np.array_equal(got, want)
    rng = np.random.default_rng(18)
    for _ in range(20):
        values = rng.integers(-2**62, 2**62, size=9)
        got = yb.rack_coboundary(yb.RackCochain(rack, 2, F3, values)).values
        assert np.array_equal(got, yb.rack_coboundary(yb.RackCochain(rack, 2, F3, values % 3)).values)
