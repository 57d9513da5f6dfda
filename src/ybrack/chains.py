"""The Yang-Baxter chain complex, dual to the cochain complex by tr(fg).

A degree-n chain is an endomorphism coefficient array values[xcode, ycode],
the coefficient of the elementary endomorphism sending the x-tuple to the
y-tuple.  The partial boundary contracts one tensor position; on a basis
element it reads, for position i = 1..n,

   boundary_i |x_1..x_n ; y_1..y_n|
       = [x_i^{x_{i+1}..x_n} == y_i^{y_{i+1}..y_n}] * |..x_{i-1}, x_{i+1}.. ; ..|
       - [x_i == y_i] * |x_1^{x_i}..x_{i-1}^{x_i}, x_{i+1}.. ; ..|

so it is the transpose of the partial coboundary at position i-1: the same
grouped summands, gathered from the output pairs of the coboundary and
scattered back into its input pairs by an exact int64 ``np.add.at``, since
there several pairs meet.  As for cochains, the input is reduced once over
F_p and range-checked over Q before anything is summed.  The pairing
<f | g> = tr(f g) = sum f[x, y] g[y, x] intertwines the two complexes.
Degree-0 chains are scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import position_data
from .racks import RackTable
from .rings import Ring
from .cochains import Cochain, _modulus, _pair_codes, _reduce, _summable


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
        xi = yi = 0
        for x, y in zip(xs, ys):
            xi = xi * q + x
            yi = yi * q + y
        return self.values[xi, yi]

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
    out = zero_chain(rack, degree, ring)
    q = rack.size
    for (xs, ys), v in entries.items():
        xi = yi = 0
        for x, y in zip(xs, ys):
            xi = xi * q + x
            yi = yi * q + y
        out.values[xi, yi] = v
    return Chain(rack, degree, ring, _reduce(out.values, ring))


def _signed_boundaries(f: Chain, signs: dict[int, int]) -> Chain:
    """The sum of sign * boundary_i f over {i: sign}: per position one gather
    from f and one exact int64 ``np.add.at`` into the source pairs."""
    side = f.rack.size ** (f.degree - 1)
    out = np.zeros(side * side, dtype=np.int64)
    # each summand gathers q entries into every source pair
    flat = _summable(f.values, f.ring, 2 * f.rack.size * len(signs))
    for i, sign in signs.items():
        data = position_data(f.rack, f.degree, i - 1)
        vals = flat[_pair_codes(data.members, data.drop.size)]
        vals = vals * np.array([sign, -sign])[:, None, None, None]
        np.add.at(out, _pair_codes(data.sources, side), vals)
    return Chain(f.rack, f.degree - 1, f.ring, _reduce(out.reshape(side, side), f.ring))


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
    total = int(np.sum(f.values * g._grid().T, dtype=object))
    mod = _modulus(f.ring)
    return total % mod if mod else total


def dump_chain(f: Chain) -> str:
    """Cochain dump format with a leading "chain" tag."""
    from .indexing import decode_tuple
    from .rings import ring_spec
    lines = [f"chain degree {f.degree} ring {ring_spec(f.ring)}"]
    q = f.rack.size
    for xi, yi in zip(*np.nonzero(f.values)):
        coords = decode_tuple(q, int(xi), f.degree) + decode_tuple(q, int(yi), f.degree)
        value = f.ring.scalar_str(f.ring.from_int(int(f.values[xi, yi])))
        lines.append(" ".join(map(str, coords)) + f" {value}")
    return "\n".join(lines) + "\n"
