"""Vectorised tuple bookkeeping for the (co)boundary formulas.

Tuples over a rack of size q are encoded big-endian: the tuple
(x_0, ..., x_{L-1}) has code sum x_j q^(L-1-j), so lexicographic order on
tuples is numeric order on codes.  For each tuple position the maps needed
by the two summands of a partial (co)boundary are tabulated once per
(rack, length, position) and cached:

* ``drop``    -- code of the tuple with that position deleted
* ``conj``    -- code of the tuple where every earlier coordinate is acted on
                 by the deleted one: (x_0^{x_j}, ..., x_{j-1}^{x_j}, x_{j+1}, ...)
* ``members`` -- shape (2, q, q^(L-1)): the tuples grouped by the key of the
                 drop summand (row 0: the deleted coordinate pushed through
                 the later ones, x_j^{x_{j+1} ... x_{L-1}}), in ``drop``
                 order, and of the conj summand (row 1: the deleted
                 coordinate itself), in ``conj`` order

A summand pairs two tuples exactly when their keys agree, so it reaches the
pairs within one key class, 1/q of all pairs, and slot s of every class has
source tuple s.  Each slot holds one tuple because right translations are
permutations (Q2, see ``validate``); a table that breaks Q2 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .racks import RackAxiomError, RackTable, behavior_partition


@dataclass(frozen=True)
class PositionData:
    drop: np.ndarray
    conj: np.ndarray
    members: np.ndarray


def tuple_coordinates(q: int, length: int) -> list[np.ndarray]:
    codes = np.arange(q**length, dtype=np.int64)
    return [(codes // q ** (length - 1 - j)) % q for j in range(length)]


def decode_tuple(q: int, code: int, length: int) -> tuple[int, ...]:
    return tuple(code // q ** (length - 1 - j) % q for j in range(length))


def encode_tuple(q: int, tup) -> int:
    """The code of a tuple; the inverse of :func:`decode_tuple`."""
    code = 0
    for x in tup:
        code = code * q + x
    return code


@lru_cache(maxsize=None)
def position_data(rack: RackTable, length: int, position: int) -> PositionData:
    q = rack.size
    table = np.asarray(rack.table, dtype=np.int64)
    coords = tuple_coordinates(q, length)
    codes = np.arange(q**length, dtype=np.int64)
    j = position

    hi = codes // q ** (length - j)
    lo = codes % q ** (length - 1 - j)
    drop = hi * q ** (length - 1 - j) + lo

    conj = np.zeros_like(codes)
    for a in range(j):
        conj += table[coords[a], coords[j]] * q ** (length - 2 - a)
    conj += lo

    act = coords[j].copy()
    for a in range(j + 1, length):
        act = table[act, coords[a]]
    members = np.full((2, q, q ** (length - 1)), -1, dtype=np.int64)
    members[0, act, drop] = codes
    members[1, coords[j], conj] = codes
    if (members < 0).any():  # two tuples met on one slot, so another stayed empty
        summand, key, slot = np.argwhere(members < 0)[0].tolist()
        raise RackAxiomError("Q2", f"position {j}, {('drop', 'conj')[summand]} summand, key class "
                             f"{key}", f"no length-{length} tuple has source {slot} there")
    for arr in (drop, conj, members):
        arr.setflags(write=False)
    return PositionData(drop=drop, conj=conj, members=members)


@lru_cache(maxsize=None)
def class_coordinates(rack: RackTable, length: int) -> tuple[np.ndarray, ...]:
    """Behaviour class of each coordinate, per tuple code."""
    cls = np.asarray(behavior_partition(rack).class_index, dtype=np.int64)
    out = tuple(cls[c] for c in tuple_coordinates(rack.size, length))
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def pair_mask(rack: RackTable, length: int, mode: str) -> np.ndarray:
    """Boolean (q^length, q^length) mask of componentwise related pairs.

    mode "diagonal": coordinates equal; mode "quasidiagonal": coordinates
    behaviourally equivalent.
    """
    q = rack.size
    size = q**length
    mask = np.ones((size, size), dtype=bool)
    if mode == "diagonal":
        sides = tuple_coordinates(q, length)
    elif mode == "quasidiagonal":
        sides = class_coordinates(rack, length)
    else:
        raise ValueError(f"unknown mask mode {mode!r}")
    for side in sides:
        mask &= np.equal.outer(side, side)
    mask.setflags(write=False)
    return mask


def insert_codes(q: int, length_out: int, codes: np.ndarray, position: int,
                 element: np.ndarray) -> np.ndarray:
    """Codes of tuples with ``element`` inserted at ``position``.

    ``codes`` enumerates tuples of length ``length_out``; the result encodes
    tuples of length ``length_out + 1``.  ``element`` broadcasts against
    ``codes``.
    """
    tail = q ** (length_out - position)
    hi = codes // tail
    lo = codes % tail
    return (hi * q + element) * tail + lo
