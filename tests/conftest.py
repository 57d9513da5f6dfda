import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ybrack as yb
from ybrack.indexing import class_coordinates


@pytest.fixture(scope="session")
def fixture_racks():
    return {name: make() for name, make in yb.catalog.FIXTURE_RACKS.items()}


@pytest.fixture(scope="session")
def fields():
    return [yb.PrimeField(2), yb.PrimeField(3), yb.PrimeField(5)]


def random_cochain(rack, degree, ring, rng, level=0):
    """Random cochain in the given filtration level (quasi-diagonal in the
    last ``level`` positions).  For rationals the values are integers."""
    side = rack.size**degree
    bound = ring.p if hasattr(ring, "p") else 19
    values = rng.integers(0, bound, size=(side, side))
    if level:
        sides = class_coordinates(rack, degree)
        mask = np.ones((side, side), dtype=bool)
        for j in range(degree - level, degree):
            mask &= np.equal.outer(sides[j], sides[j])
        values = values * mask
    return yb.Cochain(rack, degree, ring, values % bound if hasattr(ring, "p") else values - 9)


def random_chain(rack, degree, ring, rng):
    side = rack.size**degree
    bound = ring.p if hasattr(ring, "p") else 19
    values = rng.integers(0, bound, size=(side, side))
    return yb.Chain(rack, degree, ring, values if hasattr(ring, "p") else values - 9)


def cochain_dict(f):
    """Sparse dict view {(x-tuple, y-tuple): int} for the oracles."""
    from ybrack.indexing import decode_tuple
    q = f.rack.size
    out = {}
    for xi, yi in zip(*np.nonzero(f.values)):
        out[(decode_tuple(q, int(xi), f.degree), decode_tuple(q, int(yi), f.degree))] = \
            int(f.values[xi, yi])
    return out


def small_rack_sample():
    """At least twenty validated racks of size at most five."""
    racks = []
    for n in range(1, 6):
        racks.append(yb.trivial_rack(n))
    for n in range(2, 6):
        racks.append(yb.dihedral_quandle(n))
    for n in range(2, 6):
        sigma = tuple((i + 1) % n for i in range(n))
        racks.append(yb.permutation_rack(sigma))
    racks.append(yb.catalog.quandle3())
    racks.append(yb.catalog.dihedral4())
    for t in (2, 3, 4):
        racks.append(yb.affine_quandle(5, t))
    racks.append(yb.affine_quandle(3, 2))
    racks.append(yb.trivial_extension(yb.dihedral_quandle(2), 2)[0])
    three_cycles = [yb.cycles_to_permutation(3, [(1, 2, 3)]),
                    yb.cycles_to_permutation(3, [(1, 3, 2)])]
    racks.append(yb.conjugation_rack(three_cycles))
    double_transpositions = [yb.cycles_to_permutation(4, [(1, 2), (3, 4)]),
                             yb.cycles_to_permutation(4, [(1, 3), (2, 4)]),
                             yb.cycles_to_permutation(4, [(1, 4), (2, 3)])]
    racks.append(yb.conjugation_rack(double_transpositions))
    assert len(racks) >= 20
    return racks


def sample_degrees(rack):
    """Cochain degrees checked on every sample rack: 1-2, and 3 when q <= 3."""
    return (1, 2, 3) if rack.size <= 3 else (1, 2)
