"""Vectorised tuple bookkeeping for the (co)boundary formulas.

Tuples over a rack of size q are encoded big-endian: the tuple
(x_0, ..., x_{L-1}) has code sum x_j q^(L-1-j), so lexicographic order on
tuples is numeric order on codes.  Deleting position j of a length-L tuple
is read two ways by a partial (co)boundary:

* the drop summand keeps the tuple with x_j deleted, and keys it by x_j
  pushed through the later coordinates, x_j^{x_{j+1} ... x_{L-1}};
* the conj summand acts on every earlier coordinate by x_j first,
  (x_0^{x_j}, ..., x_{j-1}^{x_j}, x_{j+1}, ...), and keys it by x_j itself.

:func:`position_data` tabulates the tuples grouped by key, once per (rack,
length, position), in one array of shape (2, q, q^(L-1)): row 0 holds the
drop summand's key classes, row 1 the conj summand's, and slot s of every
class the tuple whose source, the shortened tuple, has code s.  A summand
pairs two tuples exactly when their keys agree, so it reaches the pairs
within one key class, 1/q of all pairs.  Each slot holds one tuple because
right translations are permutations (Q2, see ``validate``); a table that
breaks Q2 is refused.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np

from .racks import RackAxiomError, RackTable, behavior_partition


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
def position_data(rack: RackTable, length: int, position: int) -> np.ndarray:
    """The read-only key classes of position ``position`` in ``length``-tuples."""
    q = rack.size
    table = np.asarray(rack.table, dtype=np.int64)
    coords = tuple_coordinates(q, length)
    codes = np.arange(q**length, dtype=np.int64)
    j = position

    lo = codes % q ** (length - 1 - j)
    drop = codes // q ** (length - j) * q ** (length - 1 - j) + lo
    conj = lo
    for a in range(j):
        conj = conj + table[coords[a], coords[j]] * q ** (length - 2 - a)

    act = coords[j]
    for a in range(j + 1, length):
        act = table[act, coords[a]]
    members = np.full((2, q, q ** (length - 1)), -1, dtype=np.int64)
    members[0, act, drop] = codes
    members[1, coords[j], conj] = codes
    if (members < 0).any():  # two tuples met on one slot, so another stayed empty
        summand, key, slot = np.argwhere(members < 0)[0].tolist()
        raise RackAxiomError("Q2", f"position {j}, {('drop', 'conj')[summand]} summand, key class "
                             f"{key}", f"no length-{length} tuple has source {slot} there")
    members.setflags(write=False)
    return members


@lru_cache(maxsize=None)
def class_coordinates(rack: RackTable, length: int) -> tuple[np.ndarray, ...]:
    """Behaviour class of each coordinate, per tuple code."""
    cls = np.asarray(behavior_partition(rack).class_index, dtype=np.int64)
    out = tuple(cls[c] for c in tuple_coordinates(rack.size, length))
    for arr in out:
        arr.setflags(write=False)
    return out


def pair_numberings(rack: RackTable, subcomplex: str):
    """Yield, for L = 0, 1, 2, ..., the numbering of the basis pairs (X, Y) of
    L-tuples of a subcomplex, read from a partition of the rack: one class
    ("full"), singletons ("diagonal"), the behaviour classes ("quasidiagonal").
    X and Y have one class tuple; (X, Y) is number offset[X] + inner[Y], in
    pair-code order (X q^L + Y for one class, X for singletons).  Per tuple:
    ``block``, the smallest tuple of its class tuple; ``offset``, the count of
    basis pairs of smaller first tuples, the basis size appended; ``inner``,
    its positions in its classes in mixed radix."""
    q = rack.size
    if subcomplex not in ("full", "diagonal", "quasidiagonal"):
        raise ValueError(f"unknown subcomplex {subcomplex!r}")
    classes = (behavior_partition(rack).classes if subcomplex == "quasidiagonal"
               else [range(q)] if subcomplex == "full" else [[x] for x in range(q)])
    where = {x: (c[0], len(c), k) for c in classes for k, x in enumerate(c)}
    least, size, rank = zip(*map(where.get, range(q)))
    # block, width (the basis pairs per first tuple) and inner, one digit per coordinate
    radix, digit = np.array([[[q] * q, size, size], [least, [0] * q, rank]])[:, :, None]
    table = np.array([[0], [1], [0]])
    while True:
        yield table[0], np.concatenate(([0], table[1].cumsum())), table[2]
        table = (table[:, :, None] * radix + digit).reshape(3, -1)


@lru_cache(maxsize=None)
def pair_mask(rack: RackTable, length: int, mode: str) -> np.ndarray:
    """Read-only boolean (q^length, q^length) mask of the basis pairs of the
    subcomplex ``mode``: the pairs of one class tuple (the identity if "diagonal")."""
    block = next(islice(pair_numberings(rack, mode), length, None))[0]
    mask = np.equal.outer(block, block)
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
