"""Finite racks and quandles.

A rack is a set with a binary operation x * y whose right translations
x -> x * y are all automorphisms; a quandle additionally satisfies x * x = x.
Elements are encoded 0..n-1 in the order the table was given, since every
matrix in this package is indexed lexicographically over that order.

RackTable and everything derived from it are immutable.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import lru_cache


class RackAxiomError(ValueError):
    """A violated rack axiom, with the axiom id and an offending witness."""

    def __init__(self, axiom: str, witness, message: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}: {message}")


class ClosureError(ValueError):
    """Conjugation closure failure, with the offending generator pair."""

    def __init__(self, witness_pair, element):
        self.witness_pair = witness_pair
        self.element = element
        super().__init__(
            f"conjugate of pair {witness_pair} gives {element}, not in the input list")


@dataclass(frozen=True)
class RackTable:
    """Validated operation table; table[x][y] = x * y."""

    table: tuple[tuple[int, ...], ...]
    quandle: bool

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def column(self, y: int) -> tuple[int, ...]:
        """The right translation by y as a permutation tuple."""
        return tuple(self.table[x][y] for x in range(self.size))


def validate(table, require_quandle: bool = False) -> RackTable:
    """Check the rack axioms and return a RackTable.

    Raises RackAxiomError naming the first violated axiom: Q2 (some column is
    not a permutation, witness is the column), Q3 (self-distributivity,
    witness is the triple), or Q1 when require_quandle is set (witness is the
    element).  The quandle flag on the result records whether Q1 holds.
    """
    n = len(table)
    if n < 1:
        raise ValueError("rack must have at least one element")
    rows = []
    for x, row in enumerate(table):
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in row):
            raise ValueError(f"row {x} has entries that are not integers: {list(row)}")
        row = tuple(int(v) for v in row)
        if len(row) != n:
            raise ValueError(f"row {x} has length {len(row)}, expected {n}")
        if any(not 0 <= v < n for v in row):
            raise ValueError(f"row {x} has entries outside 0..{n - 1}")
        rows.append(row)
    table = tuple(rows)

    for y in range(n):
        column = [table[x][y] for x in range(n)]
        if len(set(column)) != n:
            raise RackAxiomError("Q2", y, f"column {y} is not a permutation")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[table[a][c]][table[b][c]]:
                    raise RackAxiomError(
                        "Q3", (a, b, c),
                        "(a*b)*c != (a*c)*(b*c)")
    quandle = all(table[a][a] == a for a in range(n))
    if require_quandle and not quandle:
        bad = next(a for a in range(n) if table[a][a] != a)
        raise RackAxiomError("Q1", bad, "a*a != a")
    return RackTable(table=table, quandle=quandle)


@lru_cache(maxsize=None)
def inverse_op(rack: RackTable) -> tuple[tuple[int, ...], ...]:
    """Table of the inverse operation: z = x *bar y iff z * y = x."""
    n = rack.size
    out = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(n):
            out[rack.op(z, y)][y] = z
    return tuple(tuple(row) for row in out)


# -- inner automorphisms -----------------------------------------------------

INNER_GROUP_CAP = 10**6


@dataclass(frozen=True)
class InnerGroup:
    """Closure of the right translations under composition and inverse."""

    elements: tuple[tuple[int, ...], ...]
    rho: tuple[int, ...]  # rho[a] = index of the translation by a

    @property
    def order(self) -> int:
        return len(self.elements)


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # right action convention: (fg)(x) = g(f(x))
    return tuple(g[f[x]] for x in range(len(f)))


def _invert(f: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(f)
    for x, y in enumerate(f):
        out[y] = x
    return tuple(out)


@lru_cache(maxsize=None)
def inner_group(rack: RackTable) -> InnerGroup:
    """Breadth-first closure of {rho(a)} under composition."""
    n = rack.size
    gens = [rack.column(y) for y in range(n)]
    identity = tuple(range(n))
    seen = {identity}
    elements = [identity]
    frontier = []
    for g in gens:
        if g not in seen:
            seen.add(g)
            elements.append(g)
            frontier.append(g)
    gen_set = gens + [_invert(g) for g in gens]
    while frontier:
        new_frontier = []
        for g in gen_set:
            for h in frontier:
                prod = _compose(h, g)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new_frontier.append(prod)
                    if len(elements) > INNER_GROUP_CAP:
                        raise OverflowError(
                            f"inner group exceeds cap of {INNER_GROUP_CAP} elements")
        frontier = new_frontier
    index = {perm: k for k, perm in enumerate(elements)}
    rho = tuple(index[rack.column(a)] for a in range(n))
    return InnerGroup(elements=tuple(elements), rho=rho)


@dataclass(frozen=True)
class BehaviorPartition:
    """x and y share a class iff x * and y * act identically on all of Q."""

    class_index: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def faithful(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


@lru_cache(maxsize=None)
def behavior_partition(rack: RackTable) -> BehaviorPartition:
    seen: dict[tuple[int, ...], int] = {}
    class_index = []
    classes: list[list[int]] = []
    for y in range(rack.size):
        col = rack.column(y)
        if col not in seen:
            seen[col] = len(classes)
            classes.append([])
        idx = seen[col]
        class_index.append(idx)
        classes[idx].append(y)
    return BehaviorPartition(
        class_index=tuple(class_index),
        classes=tuple(tuple(c) for c in classes))


# -- constructions -----------------------------------------------------------

def conjugation_rack(generators) -> RackTable:
    """Rack on a list of permutations closed under conjugation x * y = y^-1 x y.

    Permutations are given as image tuples; the element order of the result
    is the input order.  A missing conjugate raises ClosureError with the
    witness pair.
    """
    perms = [tuple(g) for g in generators]
    index = {g: i for i, g in enumerate(perms)}
    if len(index) != len(perms):
        raise ValueError("generator list has duplicates")
    n = len(perms)
    table = [[0] * n for _ in range(n)]
    for i, x in enumerate(perms):
        for j, y in enumerate(perms):
            conj = _compose(_compose(_invert(y), x), y)
            if conj not in index:
                raise ClosureError((i, j), conj)
            table[i][j] = index[conj]
    return validate(table)


def trivial_rack(n: int) -> RackTable:
    return validate([[x] * n for x in range(n)])


def dihedral_quandle(n: int) -> RackTable:
    """x * y = 2y - x mod n; for n = 3 this is conjugation on transpositions."""
    return validate([[(2 * y - x) % n for y in range(n)] for x in range(n)])


def permutation_rack(sigma) -> RackTable:
    """Constant-action rack x * y = sigma(x); a rack for any permutation."""
    sigma = tuple(sigma)
    n = len(sigma)
    return validate([[sigma[x]] * n for x in range(n)])


def affine_quandle(n: int, t: int) -> RackTable:
    """x * y = t x + (1 - t) y mod n, for t invertible mod n."""
    return validate([[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)])


def rack_from_translations(translations) -> RackTable:
    """Build a table from the right-translation permutations x -> x * y."""
    cols = [tuple(c) for c in translations]
    n = len(cols)
    return validate([[cols[y][x] for y in range(n)] for x in range(n)])


def cycles_to_permutation(n: int, cycles) -> tuple[int, ...]:
    """Image tuple of a product of cycles on points 1..n (cycle notation)."""
    images = list(range(n))
    for cycle in cycles:
        zero_based = [c - 1 for c in cycle]
        for a, b in zip(zero_based, zero_based[1:] + zero_based[:1]):
            images[a] = b
    return tuple(images)


def orbit_quotient(rack: RackTable) -> tuple[RackTable, tuple[int, ...]]:
    """Trivial rack on the orbits of the inner action, with the projection."""
    n = rack.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for y in range(n):
        for x in range(n):
            a, b = find(x), find(rack.op(x, y))
            if a != b:
                parent[max(a, b)] = min(a, b)
    roots = sorted({find(x) for x in range(n)})
    label = {r: k for k, r in enumerate(roots)}
    projection = tuple(label[find(x)] for x in range(n))
    return trivial_rack(len(roots)), projection


def trivial_extension(rack: RackTable, k: int) -> tuple[RackTable, tuple[int, ...]]:
    """Rack on Q x {0..k-1} with (x, i) * (y, j) = (x * y, i); projects onto Q."""
    if k < 1:
        raise ValueError("extension fibre must be nonempty")
    n = rack.size
    size = n * k
    table = [[0] * size for _ in range(size)]
    for x in range(n):
        for i in range(k):
            for y in range(n):
                for j in range(k):
                    table[x * k + i][y * k + j] = rack.op(x, y) * k + i
    projection = tuple(e // k for e in range(size))
    return validate(table), projection


def is_rack_homomorphism(src: RackTable, dst: RackTable, mapping) -> bool:
    """Check phi(a * b) = phi(a) * phi(b) on all pairs."""
    phi = tuple(mapping)
    if len(phi) != src.size or any(not 0 <= v < dst.size for v in phi):
        return False
    return all(
        phi[src.op(a, b)] == dst.op(phi[a], phi[b])
        for a in range(src.size) for b in range(src.size))


# -- rack file format ---------------------------------------------------------

def dump_rack(rack: RackTable) -> str:
    record = {
        "size": rack.size,
        "table": [list(row) for row in rack.table],
        "quandle": rack.quandle,
    }
    return json.dumps(record) + "\n"


def load_rack(text: str) -> RackTable:
    record = json.loads(text)
    table = record.get("table") if isinstance(record, dict) else None
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValueError("a rack file holds a JSON object whose 'table' is a list of rows")
    if len(table) != record.get("size"):
        raise ValueError("size field does not match the table")
    rack = validate(table)
    if bool(record.get("quandle")) != rack.quandle:
        raise ValueError("quandle flag does not match the table")
    return rack
