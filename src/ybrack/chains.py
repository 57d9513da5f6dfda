"""The Yang-Baxter chain complex, dual to the cochain complex by tr(fg).

A degree-n chain is an endomorphism coefficient array values[xcode, ycode],
the coefficient of the elementary endomorphism sending the x-tuple to the
y-tuple.  The partial boundary contracts one tensor position; on a basis
element it reads, for position i = 1..n,

   boundary_i |x_1..x_n ; y_1..y_n|
       = [x_i^{x_{i+1}..x_n} == y_i^{y_{i+1}..y_n}] * |..x_{i-1}, x_{i+1}.. ; ..|
       - [x_i == y_i] * |x_1^{x_i}..x_{i-1}^{x_i}, x_{i+1}.. ; ..|

so it is the transpose of the partial coboundary at position i-1: the same
key classes, each gathered from the output pairs of the coboundary.  A
class lists its tuples in the order of their sources, so its gather is a
grid over the input pairs, and the classes of a summand add up in int64
into the full input grid.  As for cochains, the input is reduced once over
F_p and range-checked over Q before anything is summed.  The pairing
<f | g> = tr(f g) = sum f[x, y] g[y, x] intertwines the two complexes.
Degree-0 chains are scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import encode_tuple
from .racks import RackTable
from .rings import INT64_MAX, Ring
from .cochains import (Cochain, _modulus, _reduce, _summable, _summands, cochain_from_entries,
                       dump_cochain)


@dataclass(frozen=True)
class Chain:
    rack: RackTable
    degree: int
    ring: Ring
    values: np.ndarray

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def entry(self, xs, ys):
        q = self.rack.size
        return self.values[encode_tuple(q, xs), encode_tuple(q, ys)]

    @property
    def scalar(self):
        """Degree-0 chains are scalars; the single stored coefficient."""
        if self.degree != 0:
            raise ValueError("scalar view only exists in degree 0")
        return int(self.values[0, 0])


def zero_chain(rack: RackTable, degree: int, ring: Ring) -> Chain:
    side = rack.size**degree
    return Chain(rack, degree, ring, np.zeros((side, side), dtype=np.int64))


def chain_from_entries(rack: RackTable, degree: int, ring: Ring, entries) -> Chain:
    return Chain(rack, degree, ring, cochain_from_entries(rack, degree, ring, entries).values)


def _signed_boundaries(f: Chain, signs: dict[int, int]) -> Chain:
    """The sum of sign * boundary_i f over {i: sign}: per chunk of key
    classes one gather from f, summed over the classes into the input grid."""
    side = f.rack.size ** (f.degree - 1)
    out = np.zeros((side, side), dtype=np.int64)
    # each summand gathers q entries into every source pair
    flat = _summable(f.values, f.ring, 2 * f.rack.size * len(signs)).reshape(-1)
    for i, sign in signs.items():
        for summand, rows in _summands(f.rack, f.degree, i - 1):
            out += sign * summand * flat[rows].sum(axis=0)
    return Chain(f.rack, f.degree - 1, f.ring, _reduce(out, f.ring))


def partial_boundary(f: Chain, i: int) -> Chain:
    """Boundary summand contracting tensor position i (1-based)."""
    if not 1 <= i <= f.degree:
        raise IndexError(f"partial boundary index {i} outside 1..{f.degree}")
    return _signed_boundaries(f, {i: 1})


def boundary(f: Chain) -> Chain:
    """Alternating sum with signs (-1)^(i-1) over i = 1..degree."""
    return _signed_boundaries(f, {i: (-1) ** (i - 1) for i in range(1, f.degree + 1)})


def pairing(f: Chain, g: Cochain):
    """The duality pairing tr(f g), exact in the common coefficient ring."""
    if f.degree != g.degree or f.rack != g.rack:
        raise ValueError("pairing needs matching rack and degree")
    a, b = f.values, g.values.T
    if max(int(a.max()), -int(a.min())) * max(int(b.max()), -int(b.min())) > INT64_MAX:
        a, b = a.astype(object), b.astype(object)  # products would leave int64
    total = int(np.sum(a * b, dtype=object))
    mod = _modulus(f.ring)
    return total % mod if mod else total


def dump_chain(f: Chain) -> str:
    """Cochain dump format with a leading "chain" tag."""
    return "chain " + dump_cochain(f)
