"""Homotopy retraction of the cochain complex onto its quasi-diagonal part.

The filtration C_0 > C_1 > ... keeps cochains that are quasi-diagonal in the
last m tuple positions.  For each level the insertion homotopy s lowers the
degree by one: writing k = degree - m, it tests the output pair at position
k (1-based), and when the tested coordinates are behaviourally inequivalent
it looks the pair (u, v) up in the witness map and evaluates the input
cochain with u, v inserted just before the tested position.  The witness map
sends each inequivalent pair (x, y) to some (u, v) with u != v but
u * x = v * y; ties are broken by the smallest such z = u * x in element
order, so results are reproducible.

Index bookkeeping: output tuples are indexed 1..degree-1 here, with output
coordinate j holding input coordinate j+1, so the tested position is k-1 and
the insertion happens at 0-based offset k-2.  For k <= 1 there is no room in
the output tuple for a tested coordinate and s is the zero map; the level
maps below stay correct because their k = 1 content comes entirely from the
s term one degree up.

From s the defect t = d(s f) - s(d f) and the level projection
p = id - (-1)^(degree-m) t are built; p sends level m into level m+1, fixes
level m+1 pointwise, and commutes with the coboundary.  Composing the level
projections gives the projection onto quasi-diagonal cochains.  With
step = -(-1)^(degree-m) s(c), p(c) - (c + d step) = -(-1)^(degree-m) s(d c),
which is zero on cocycles: their representative adds d(step) per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cochains import (Cochain, add, coboundary, pair_mask, scale, sub, zero_cochain,
                       _reduce)
from .indexing import class_coordinates, decode_tuple, insert_codes, tuple_coordinates
from .racks import RackTable, behavior_partition, inverse_op


class FiltrationError(ValueError):
    """Input cochain does not lie in the stated filtration level."""


class NotACocycleError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coboundary is nonzero at {witness}")


class PostconditionError(ArithmeticError):
    """A result broke a mathematical postcondition; ``witness`` names where."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(f"{message}: {witness}")


def _first_entry(f: Cochain, where: np.ndarray):
    """The first True position of a grid shaped like f's, as (x, y) tuples."""
    xi, yi = np.argwhere(where)[0]
    return tuple(decode_tuple(f.rack.size, int(c), f.degree) for c in (xi, yi))


@dataclass(frozen=True)
class WitnessMap:
    """For each behaviourally inequivalent (x, y): a pair (u, v) with
    u != v and u * x = v * y.  Entries are -1 on equivalent pairs."""

    rack: RackTable
    u: np.ndarray
    v: np.ndarray

    def pair(self, x: int, y: int) -> tuple[int, int]:
        if self.u[x, y] < 0:
            raise KeyError(f"({x}, {y}) is behaviourally equivalent")
        return int(self.u[x, y]), int(self.v[x, y])

    def domain(self):
        xs, ys = np.nonzero(self.u >= 0)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]


@lru_cache(maxsize=None)
def build_witness_map(rack: RackTable) -> WitnessMap:
    n = rack.size
    cls = behavior_partition(rack).class_index
    inv = inverse_op(rack)
    u = -np.ones((n, n), dtype=np.int64)
    v = -np.ones((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if cls[x] == cls[y]:
                continue
            z = next(z for z in range(n) if inv[z][x] != inv[z][y])
            a, b = inv[z][x], inv[z][y]
            # construction postcondition: distinct preimages, common image
            if a == b or not rack.op(a, x) == rack.op(b, y) == z:
                raise PostconditionError(f"witness needs u != v and u * x = v * y = {z}",
                                         {"pair": (x, y), "uv": (a, b)})
            u[x, y], v[x, y] = a, b
    u.setflags(write=False)
    v.setflags(write=False)
    return WitnessMap(rack=rack, u=u, v=v)


def filtration_level(f: Cochain) -> int:
    """Largest m with f quasi-diagonal in the last m positions (n if all)."""
    n = f.degree
    grid = f.values
    sides = class_coordinates(f.rack, n)
    worst = 0
    for j in range(n):  # 0-based position j is 1-based coordinate j+1
        inequivalent = ~np.equal.outer(sides[j], sides[j])
        if np.any(grid * inequivalent):
            worst = j + 1
    return n - worst


def _require_level(f: Cochain, m: int):
    # the filtration stabilises at the degree: C_m = C_degree for m > degree;
    # every cochain lies in C_0
    needed = min(m, f.degree)
    if needed and filtration_level(f) < needed:
        raise FiltrationError(
            f"cochain has filtration level {filtration_level(f)}, needs >= {needed}")


def insertion_homotopy(f: Cochain, m: int) -> Cochain:
    """The degree-lowering homotopy at filtration level m."""
    n = f.degree
    _require_level(f, m)
    out = zero_cochain(f.rack, n - 1, f.ring)
    k = n - m
    if k <= 1:  # no tested coordinate available; zero by convention (k < 1: by definition)
        return out
    q = f.rack.size
    pos = k - 2
    wm = build_witness_map(f.rack)
    side_codes = np.arange(q ** (n - 1), dtype=np.int64)
    tested = tuple_coordinates(q, n - 1)[pos]
    cls = class_coordinates(f.rack, n - 1)[pos]
    hit = ~np.equal.outer(cls, cls)
    u2 = wm.u[np.ix_(tested, tested)]
    v2 = wm.v[np.ix_(tested, tested)]
    # inserted codes; on equivalent pairs u2/v2 are -1, masked out below
    rows = insert_codes(q, n - 1, side_codes[:, None], pos, np.where(hit, u2, 0))
    cols = insert_codes(q, n - 1, side_codes[None, :], pos, np.where(hit, v2, 0))
    gathered = f.values[rows, cols] * hit
    return Cochain(f.rack, n - 1, f.ring, _reduce(gathered, f.ring))


def homotopy_defect(f: Cochain, m: int) -> Cochain:
    """t = d(s f) - s(d f) at level m; scales entries on the tested stripe."""
    left = coboundary(insertion_homotopy(f, m))
    right = insertion_homotopy(coboundary(f), m)
    return sub(left, right)


def level_projection(f: Cochain, m: int) -> Cochain:
    """p = id - (-1)^(degree - m) t; maps level m into level m+1."""
    t = homotopy_defect(f, m)
    return add(f, t) if (f.degree - m) % 2 else sub(f, t)


def quasidiagonal_projection(f: Cochain) -> Cochain:
    """Composite of the level projections; lands on quasi-diagonal cochains."""
    out = f
    for m in range(f.degree):
        out = level_projection(out, m)
    return out


def quasidiagonal_representative(f: Cochain) -> tuple[Cochain, Cochain]:
    """For a cocycle f: a quasi-diagonal cocycle f + d(g), returned with g.

    One walk over the levels m = 0..degree-2 adds d(step) to the cochain and
    step to g; level degree-1 is skipped because s is zero there.  Every call
    checks that each level starts from a cocycle (the last is the result) and
    that the result is quasi-diagonal; failures name an entry (x, y) in a
    :class:`NotACocycleError` (input) or :class:`PostconditionError`.
    """
    n = f.degree
    current, g = f, zero_cochain(f.rack, n - 1, f.ring)
    for m in range(n):
        dc = coboundary(current)
        if not dc.is_zero():
            witness = _first_entry(dc, dc.values != 0)
            if m == 0:
                raise NotACocycleError(witness)
            what = "representative" if m == n - 1 else f"level-{m} start"
            raise PostconditionError(f"{what} is not a cocycle", witness)
        if m < n - 1:
            step = scale(1 if (n - m) % 2 else -1, insertion_homotopy(current, m))
            current, g = add(current, coboundary(step)), add(g, step)
    off = (current.values != 0) & ~pair_mask(f.rack, n, "quasidiagonal")
    if off.any():
        raise PostconditionError("representative is not quasi-diagonal", _first_entry(f, off))
    return current, g
