import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ybrack as yb
from ybrack import linalg
from ybrack.cochains import cochain_to_vector, sub as csub
from ybrack.indexing import class_coordinates

from conftest import random_cochain, small_rack_sample
from oracles import coboundary_entry, representative_longhand

F2 = yb.PrimeField(2)
F3 = yb.PrimeField(3)
F5 = yb.PrimeField(5)


def random_in_level(rack, degree, ring, rng, m):
    return random_cochain(rack, degree, ring, rng, level=m)


def test_witness_map_dihedral3_smallest_choice():
    # on the faithful dihedral quandle the translations are involutions, so
    # the inverse operation is the operation itself; the smallest z with
    # z*x != z*y for (x, y) = (0, 1) is z = 0, giving (u, v) = (0, 2)
    wm = yb.build_witness_map(yb.catalog.dihedral3())
    assert wm.pair(0, 1) == (0, 2)


def test_witness_map_trivial_rack_is_empty():
    wm = yb.build_witness_map(yb.trivial_rack(4))
    assert wm.domain() == []


def test_witness_map_postconditions_everywhere():
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral3(), yb.catalog.dihedral4()):
        wm = yb.build_witness_map(rack)
        part = yb.behavior_partition(rack)
        for x, y in wm.domain():
            u, v = wm.pair(x, y)
            assert u != v
            assert rack.op(u, x) == rack.op(v, y)
        # defined exactly on the inequivalent pairs
        expected = {(x, y) for x in range(rack.size) for y in range(rack.size)
                    if part.class_index[x] != part.class_index[y]}
        assert set(wm.domain()) == expected


def test_filtration_level_cases():
    rack = yb.catalog.quandle3()
    rng = np.random.default_rng(70)
    qd = yb.project_quasidiagonal(random_cochain(rack, 2, F3, rng))
    assert yb.filtration_level(qd) == 2
    assert yb.filtration_level(yb.zero_cochain(rack, 2, F3)) == 2
    # a single entry violating only the first coordinate has level n-1
    f = yb.cochain_from_entries(rack, 2, F3, {((0, 0), (2, 0)): 1})
    assert yb.filtration_level(f) == 1
    # violating the last coordinate puts it at level 0
    g = yb.cochain_from_entries(rack, 2, F3, {((0, 0), (0, 2)): 1})
    assert yb.filtration_level(g) == 0


def test_insertion_homotopy_requires_the_level():
    rack = yb.catalog.quandle3()
    f = yb.cochain_from_entries(rack, 2, F3, {((0, 0), (0, 2)): 1})  # level 0
    for level_map in (yb.insertion_homotopy, yb.homotopy_defect, yb.level_projection):
        with pytest.raises(yb.FiltrationError):
            level_map(f, 1)


def test_insertion_homotopy_zero_cases():
    rack = yb.catalog.dihedral3()
    rng = np.random.default_rng(71)
    qd = yb.project_quasidiagonal(random_cochain(rack, 2, F5, rng))
    assert yb.insertion_homotopy(qd, 0).is_zero()
    assert yb.insertion_homotopy(qd, 2).is_zero()   # m >= n
    assert yb.insertion_homotopy(qd, 5).is_zero()


def test_insertion_homotopy_single_entry_hand_check():
    # degree 2, level 0, tested position is the second coordinate; for the
    # dihedral quandle psi(1, 0) = (2, 0), so the indicator of
    # ((2,1),(0,0)) pulls back to the indicator of ((1),(0))
    rack = yb.catalog.dihedral3()
    f = yb.cochain_from_entries(rack, 2, F5, {((2, 1), (0, 0)): 1})
    out = yb.insertion_homotopy(f, 0)
    expect = np.zeros((3, 3), dtype=np.int64)
    expect[1, 0] = 1
    assert np.array_equal(out.values, expect)


@pytest.mark.parametrize("ring", [F2, F3, F5])
def test_homotopy_identities_sampled(ring):
    racks = [yb.catalog.trivial4(), yb.catalog.quandle3(),
             yb.catalog.dihedral3(), yb.catalog.dihedral4()]
    rng = np.random.default_rng(72 + ring.p)
    for rack in racks:
        for n in (1, 2, 3):
            for m in range(n):
                k = n - m
                sides = class_coordinates(rack, n)
                stripe = ~np.equal.outer(sides[k - 1], sides[k - 1])
                for _ in range(5):
                    f = random_in_level(rack, n, ring, rng, m)
                    t = yb.homotopy_defect(f, m)
                    s_f = yb.insertion_homotopy(f, m)
                    recomputed = csub(yb.coboundary(s_f),
                                      yb.insertion_homotopy(yb.coboundary(f), m))
                    assert np.array_equal(t.values, recomputed.values)
                    want = (-1) ** k * f.values % ring.p
                    assert np.array_equal(t.values[stripe], want[stripe])
                    deeper = random_in_level(rack, n, ring, rng, min(m + 1, n))
                    assert yb.homotopy_defect(deeper, m).is_zero()
                    p_f = yb.level_projection(f, m)
                    assert yb.filtration_level(p_f) >= m + 1
                    assert np.array_equal(
                        yb.level_projection(deeper, m).values, deeper.values)
                    assert np.array_equal(
                        yb.coboundary(p_f).values,
                        yb.level_projection(yb.coboundary(f), m).values)


def test_trivial_rack_defect_vanishes_and_projection_is_identity():
    rack = yb.catalog.trivial4()
    rng = np.random.default_rng(73)
    for n in (1, 2):
        f = random_cochain(rack, n, F3, rng)
        for m in range(n):
            assert yb.homotopy_defect(f, m).is_zero()
            assert np.array_equal(yb.level_projection(f, m).values, f.values)
        assert np.array_equal(yb.quasidiagonal_projection(f).values, f.values)


def test_quasidiagonal_projection_properties():
    rng = np.random.default_rng(74)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral4()):
        for ring in (F2, F3):
            for _ in range(10):
                f = random_cochain(rack, 2, ring, rng)
                proj = yb.quasidiagonal_projection(f)
                assert proj.is_quasidiagonal()
                again = yb.quasidiagonal_projection(proj)
                assert np.array_equal(again.values, proj.values)
                qd = yb.project_quasidiagonal(f)
                assert np.array_equal(
                    yb.quasidiagonal_projection(qd).values, qd.values)


def _cocycle_space(rack, ring, degree=2):
    mat = yb.coboundary_matrix(rack, ring, degree)
    return [yb.vector_to_cochain(rack, degree, ring, vec)
            for vec in linalg.kernel_basis(mat)]


def test_projection_of_cocycles_is_cohomologous():
    # for every kernel-basis 2-cocycle on dihedral-4 over F2: the projection
    # is a quasi-diagonal cocycle and differs from it by a coboundary
    rack = yb.catalog.dihedral4()
    d1 = yb.coboundary_matrix(rack, F2, 1)
    for f in _cocycle_space(rack, F2):
        proj = yb.quasidiagonal_projection(f)
        assert proj.is_quasidiagonal()
        assert yb.coboundary(proj).is_zero()
        diff = csub(f, proj)
        assert linalg.solve(d1, cochain_to_vector(diff)) is not None


def test_quasidiagonal_representative_fixes_quasidiagonal_cocycles():
    rack = yb.catalog.quandle3()
    ident = yb.identity_cochain(rack, 2, F2)
    rep, correction = yb.quasidiagonal_representative(ident)
    assert np.array_equal(rep.values, ident.values)
    assert correction.is_zero()


def test_quasidiagonal_representative_on_trivial_rack():
    rack = yb.catalog.trivial4()
    rng = np.random.default_rng(75)
    f = random_cochain(rack, 2, F3, rng)  # every cochain is a cocycle here
    rep, correction = yb.quasidiagonal_representative(f)
    assert np.array_equal(rep.values, f.values)
    assert correction.is_zero()


def test_quasidiagonal_representative_random_cocycles():
    rng = np.random.default_rng(76)
    for rack, ring in ((yb.catalog.quandle3(), F2), (yb.catalog.dihedral4(), F3)):
        basis = _cocycle_space(rack, ring)
        for _ in range(10):
            coeffs = rng.integers(0, ring.p, size=len(basis))
            total = yb.zero_cochain(rack, 2, ring)
            for c, vec in zip(coeffs, basis):
                total = yb.Cochain(rack, 2, ring,
                                   (total.values + int(c) * vec.values) % ring.p)
            rep, correction = yb.quasidiagonal_representative(total)
            assert rep.is_quasidiagonal()
            assert yb.coboundary(rep).is_zero()
            want = (total.values + yb.coboundary(correction).values) % ring.p
            assert np.array_equal(rep.values, want)


def test_quasidiagonal_representative_rejects_non_cocycles():
    rack = yb.catalog.quandle3()
    f = yb.cochain_from_entries(rack, 2, F2, {((0, 0), (0, 2)): 1})
    assert not yb.coboundary(f).is_zero()
    with pytest.raises(yb.NotACocycleError) as err:
        yb.quasidiagonal_representative(f)
    assert err.value.witness is not None


def test_witness_map_postcondition_names_the_pair(monkeypatch):
    # a corrupted inverse table yields preimages that miss their common image
    rack = yb.catalog.dihedral3()
    shifted = tuple(tuple((v + 1) % 3 for v in row) for row in yb.inverse_op(rack))
    monkeypatch.setattr(yb.homotopy, "inverse_op", lambda _rack: shifted)
    with pytest.raises(yb.PostconditionError) as err:
        yb.build_witness_map.__wrapped__(rack)
    (x, y), (u, v) = err.value.witness["pair"], err.value.witness["uv"]
    assert (x, y) == (0, 1) and (u, v) == (1, 0)
    assert not rack.op(u, x) == rack.op(v, y) == 0  # z = 0 separates the shifted table


def test_representative_matches_the_longhand_walk():
    # every small rack over F2, F3, F5 and Q: random coboundaries, plus the
    # identity cocycle in degree 2; degree 3 wherever the rack has q <= 4
    rng = np.random.default_rng(80)
    for rack in small_rack_sample():
        for ring in (F2, F3, F5, yb.Rationals()):
            for n in (2, 3) if rack.size <= 4 else (2,):
                exact = yb.coboundary(random_cochain(rack, n - 1, ring, rng))
                cases = [exact]
                if n == 2:
                    ident = yb.identity_cochain(rack, 2, ring)
                    cases += [ident, yb.cochains.add(exact, ident)]
                for f in cases:
                    rep, g = yb.quasidiagonal_representative(f)
                    want_rep, want_g = representative_longhand(f)
                    assert np.array_equal(rep.values, want_rep.values)
                    assert np.array_equal(g.values, want_g.values)


def _plant_in_steps(monkeypatch, degree, entry):
    """Make the walk's d(step) carry one extra entry, so the next cocycle
    check sees d of that entry's indicator."""
    real = yb.homotopy.coboundary

    def planted(c):
        out = real(c)
        if c.degree == degree - 1:
            out = yb.cochains.add(out, yb.cochain_from_entries(c.rack, degree, c.ring, {entry: 1}))
        return out
    monkeypatch.setattr(yb.homotopy, "coboundary", planted)


@pytest.mark.parametrize("n,message,witness", [
    (3, "level-1 start is not a cocycle", ((0, 0, 0, 2), (0, 0, 0, 2))),
    (2, "representative is not a cocycle", ((0, 0, 2), (0, 0, 2))),
])
def test_representative_checks_each_cocycle(monkeypatch, n, message, witness):
    # a quasi-diagonal entry planted in d(step) passes the quasi-diagonal
    # check, so the level-1 start (degree 3) or the final cocycle check
    # (degree 2) must catch it, at the first nonzero entry of its coboundary
    rack = yb.catalog.quandle3()
    entry = ((0,) * n, (0,) * n)
    f = yb.coboundary(random_cochain(rack, n - 1, F3, np.random.default_rng(78)))
    _plant_in_steps(monkeypatch, n, entry)
    with pytest.raises(yb.PostconditionError, match=message) as err:
        yb.quasidiagonal_representative(f)
    assert err.value.witness == witness
    assert coboundary_entry(rack, {entry: 1}, *witness) != 0


def test_representative_checks_quasidiagonal_with_the_step_sign_flipped(monkeypatch):
    # d(-step) keeps the cochain a cocycle but doubles its off-diagonal part
    rack = yb.catalog.dihedral3()
    f = yb.coboundary(random_cochain(rack, 1, F3, np.random.default_rng(79)))
    real = yb.homotopy.insertion_homotopy
    monkeypatch.setattr(yb.homotopy, "insertion_homotopy",
                        lambda g, m: yb.cochains.scale(-1, real(g, m)))
    with pytest.raises(yb.PostconditionError, match="not quasi-diagonal") as err:
        yb.quasidiagonal_representative(f)
    assert err.value.witness == ((0, 0), (0, 1))


def test_representative_cocycle_check_holds_under_python_O():
    script = textwrap.dedent("""
        import ybrack as yb
        rack, F3 = yb.catalog.quandle3(), yb.PrimeField(3)
        real = yb.homotopy.coboundary
        plant = yb.cochain_from_entries(rack, 2, F3, {((0, 0), (0, 0)): 1})
        yb.homotopy.coboundary = lambda c: (
            yb.cochains.add(real(c), plant) if c.degree == 1 else real(c))
        try:
            yb.quasidiagonal_representative(yb.identity_cochain(rack, 2, F3))
        except yb.PostconditionError as err:
            print(__debug__, "refused", err.witness)
        else:
            print(__debug__, "returned")
    """)
    src = Path(yb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.split()[:2] == ["False", "refused"]


def test_representative_checks_the_result_is_quasidiagonal(monkeypatch):
    # with the homotopy switched off the cocycle never moves and stays a
    # cocycle, so only the quasi-diagonal check can catch it
    rack = yb.catalog.dihedral3()
    rng = np.random.default_rng(77)
    f = yb.coboundary(random_cochain(rack, 1, F3, rng))
    assert not f.is_quasidiagonal()
    monkeypatch.setattr(yb.homotopy, "insertion_homotopy",
                        lambda g, m: yb.zero_cochain(g.rack, g.degree - 1, g.ring))
    with pytest.raises(yb.PostconditionError) as err:
        yb.quasidiagonal_representative(f)
    xs, ys = err.value.witness
    assert xs != ys and f.entry(xs, ys) != 0  # dihedral3 is faithful
