import numpy as np
import pytest

import ybrack as yb
from ybrack.indexing import decode_tuple

import oracles
from conftest import (cochain_dict, random_chain, random_cochain, sample_degrees,
                      small_rack_sample)

F2 = yb.PrimeField(2)
F3 = yb.PrimeField(3)
F5 = yb.PrimeField(5)
QQ = yb.Rationals()


def chain_dict(f):
    q = f.rack.size
    out = {}
    for xi, yi in zip(*np.nonzero(f.values)):
        out[(decode_tuple(q, int(xi), f.degree), decode_tuple(q, int(yi), f.degree))] = \
            int(f.values[xi, yi])
    return out


def test_partial_boundary_matches_basis_oracle():
    # expand a random chain into basis elements and push each through the
    # longhand boundary formula
    rng = np.random.default_rng(60)
    for rack in small_rack_sample():
        q = rack.size
        for ring in (F3, QQ):
            for n in sample_degrees(rack):
                f = random_chain(rack, n, ring, rng)
                table = chain_dict(f)
                for i in range(1, n + 1):
                    got = yb.partial_boundary(f, i)
                    want = np.zeros((q ** (n - 1), q ** (n - 1)), dtype=np.int64)
                    for basis, coeff in table.items():
                        for (xs, ys), w in oracles.partial_boundary_basis(rack, i, *basis).items():
                            want[_code(q, xs), _code(q, ys)] += coeff * w
                    assert np.array_equal(got.values, want % 3 if ring == F3 else want)


def _code(q, tup):
    code = 0
    for x in tup:
        code = code * q + x
    return code


def test_boundary_of_single_basis_chain_dihedral3():
    # one bracketed basis element pushed through the formula by hand
    rack = yb.catalog.dihedral3()
    f = yb.chain_from_entries(rack, 2, QQ, {((0, 1), (2, 1)): 1})
    out = yb.boundary(f)
    want = {}
    for i in (1, 2):
        sign = 1 if (i - 1) % 2 == 0 else -1
        for key, w in oracles.partial_boundary_basis(rack, i, (0, 1), (2, 1)).items():
            want[key] = want.get(key, 0) + sign * w
    for (xs, ys), value in want.items():
        assert int(out.entry(xs, ys)) == value


def test_trivial_rack_boundary_vanishes():
    rng = np.random.default_rng(61)
    rack = yb.trivial_rack(3)
    for n in (1, 2, 3):
        f = random_chain(rack, n, F3, rng)
        assert yb.boundary(f).is_zero()


def test_boundary_squared_is_zero():
    rng = np.random.default_rng(62)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3(), yb.catalog.dihedral4()):
        for ring in (F2, F3, F5, QQ):
            for n in (2, 3):
                for _ in range(5):
                    f = random_chain(rack, n, ring, rng)
                    assert yb.boundary(yb.boundary(f)).is_zero()


def test_partial_boundaries_commute():
    # boundary_j . boundary_i = boundary_i . boundary_{j+1} for i <= j
    rng = np.random.default_rng(63)
    for rack in (yb.catalog.quandle3(), yb.dihedral_quandle(2)):
        for ring in (F3, QQ):
            for n in (2, 3):
                f = random_chain(rack, n, ring, rng)
                for i in range(1, n + 1):
                    di = yb.partial_boundary(f, i)
                    for j in range(i, n):
                        lhs = yb.partial_boundary(di, j)
                        rhs = yb.partial_boundary(yb.partial_boundary(f, j + 1), i)
                        assert np.array_equal(lhs.values, rhs.values)


def test_degree_one_boundary_is_zero_scalar():
    rng = np.random.default_rng(64)
    rack = yb.catalog.dihedral3()
    f = random_chain(rack, 1, F5, rng)
    out = yb.boundary(f)
    assert out.degree == 0 and out.scalar == 0


def test_pairing_of_elementary_tensors():
    rack = yb.catalog.quandle3()
    # <|x><y| , e^u_v> = 1 iff v = x and y = u
    for x, y, u, v in ((0, 1, 1, 0), (0, 1, 0, 1), (2, 2, 2, 2), (1, 0, 2, 1)):
        chain = yb.chain_from_entries(rack, 1, QQ, {((x,), (y,)): 1})
        cochain = yb.cochain_from_entries(rack, 1, QQ, {((u,), (v,)): 1})
        assert yb.pairing(chain, cochain) == (1 if (v == x and y == u) else 0)



@pytest.mark.parametrize("spec,value", [("Q", 2**40), ("Q", -2**62),
                                        ("F4294967311", 4294967310),
                                        ("F9223372036854775783", 2**63 - 26)])
def test_pairing_does_not_wrap_past_int64(spec, value):
    # entries whose products leave int64: over Q, and over F_p for p > 2^31.5
    ring = yb.parse_ring(spec)
    rack = yb.catalog.dihedral3()
    chain = yb.chain_from_entries(rack, 1, ring, {((1,), (2,)): value, ((0,), (0,)): 5})
    cochain = yb.cochain_from_entries(rack, 1, ring, {((2,), (1,)): value, ((0,), (0,)): 7})
    want = oracles.pairing_value(3, 1, chain_dict(chain), cochain_dict(cochain))
    assert yb.pairing(chain, cochain) == (want if spec == "Q" else want % ring.p)

def test_pairing_degree_mismatch():
    rack = yb.catalog.quandle3()
    chain = yb.zero_chain(rack, 2, F2)
    cochain = yb.zero_cochain(rack, 1, F2)
    with pytest.raises(ValueError):
        yb.pairing(chain, cochain)


def test_duality_adjunction_per_index():
    # <boundary_i f | g> = <f | d_{i-1} g> for i = 1..n+1
    rng = np.random.default_rng(65)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3()):
        for ring in (F2, F3, F5):
            for n in (2, 3):
                for _ in range(10):
                    f = random_chain(rack, n, ring, rng)
                    g = random_cochain(rack, n - 1, ring, rng)
                    for i in range(1, n + 1):
                        lhs = yb.pairing(yb.partial_boundary(f, i), g)
                        rhs = yb.pairing(f, yb.partial_coboundary(g, i - 1))
                        assert lhs == rhs


def test_duality_adjunction_full():
    rng = np.random.default_rng(66)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3()):
        for ring in (F2, F5, QQ):
            for n in (2, 3):
                for _ in range(10):
                    f = random_chain(rack, n, ring, rng)
                    g = random_cochain(rack, n - 1, ring, rng)
                    assert yb.pairing(yb.boundary(f), g) == \
                        yb.pairing(f, yb.coboundary(g))


def test_diagonal_chains_form_a_subcomplex():
    rng = np.random.default_rng(67)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral4()):
        side = rack.size ** 2
        diag = np.zeros((side, side), dtype=np.int64)
        idx = np.arange(side)
        diag[idx, idx] = rng.integers(0, 5, size=side)
        f = yb.Chain(rack, 2, F5, diag % 5)
        out = yb.boundary(f)
        off = out.values.copy()
        np.fill_diagonal(off, 0)
        assert not off.any()


def test_dump_chain_format():
    rack = yb.catalog.quandle3()
    f = yb.chain_from_entries(rack, 2, F5, {((0, 1), (2, 0)): 4})
    text = yb.dump_chain(f)
    lines = text.strip().splitlines()
    assert lines[0] == "chain degree 2 ring F5"
    assert lines[1] == "0 1 2 0 4"
