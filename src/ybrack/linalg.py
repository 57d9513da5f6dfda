"""Exact linear algebra over the fields of :mod:`ybrack.rings`.

Rank, kernel bases and linear solving are read off the reduced row echelon
form (RREF), which is canonical for a matrix over a field, so every answer
is independent of how the elimination is organised.  There is one
elimination path for every field:

1. **Unit pivots (rank only).**  :func:`rank` first eliminates pivots on
   entries that are units over every field (1 and -1) in vectorised
   rounds of independent pivots, and keeps only the Schur complement that
   remains, the core (:func:`_unit_pivots`).  The rank is the pivot count
   plus the rank of the core, which the steps below reduce.
   :func:`kernel_basis` and :func:`rank_and_solve` need the rows of the
   RREF, so they start at step 2 with the whole matrix.
2. **Blocks.**  The nonzero entries are split into the connected components
   of the row/column incidence graph.  Distinct blocks share no row and no
   column, so the RREF of the matrix is the union of the blocks' RREFs and
   each block is eliminated on its own as a dense grid.
3. **Over F_p** a block is reduced mod p with int64 arithmetic, which is
   exact for p up to :data:`MAX_PRIME`; larger primes are refused.
4. **Over Q** every row is first scaled by the lcm of its denominators
   (same row space, same RREF), and a block is reduced fraction-free over Z
   (:func:`ybrack.rings._rref_over_z`).  Integer row operations keep the
   row space, so each reduced row divided by its pivot entry is the RREF
   row exactly: there is nothing to certify.

Pivoting is deterministic: unit pivots are chosen by Markowitz cost with
ties in position order, and a block pivots on the first nonzero entry of a
column, in row order.

A matrix is stored as coordinates: the sorted flat positions
``row * cols + col`` of its nonzero entries and their reduced values (int64
residues over a prime field, ring scalars otherwise).  A dense grid in its
ring's layout enters through :meth:`ExactMatrix.from_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rings import (INT64_MAX, NotAFieldError, PrimeField, Rationals, Ring, SeriesRing,
                    _magnitude, _rref_mod_p, _rref_over_z, _scaled_rows)

# The largest prime p whose elimination stays inside int64: every value it
# forms lies within (p - 1)^2 + (p - 1) < 2^63.
MAX_PRIME = 3_037_000_493
# Dense cells allowed in one block; a larger block is refused.
BLOCK_CELL_LIMIT = 40_000_000


class BlockSizeError(ValueError):
    def __init__(self, rows, cols):
        super().__init__(f"a connected {rows}x{cols} block exceeds the dense "
                         f"elimination limit of {BLOCK_CELL_LIMIT} cells")


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Per entry of a sorted array, whether it starts a run of equal values."""
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return first


def _summed(keys: np.ndarray, vals: np.ndarray, ring: Ring):
    """Sorted distinct keys and the sums of their int64 values, reduced mod p
    over F_p, zeros dropped (one sort, then one segment sum)."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(_run_starts(keys))
    if starts.size:
        vals = np.add.reduceat(vals, starts)
    if isinstance(ring, PrimeField):
        vals %= ring.p
    nonzero = vals != 0
    return keys[starts][nonzero], vals[nonzero]


def _values(ring: Ring, values) -> np.ndarray:
    """Coordinate values: int64 residues over a prime field, else objects."""
    if isinstance(ring, PrimeField):
        return np.asarray(values, dtype=np.int64).reshape(-1)
    return np.fromiter(values, dtype=object, count=len(values))


class ExactMatrix:
    """A rows x cols matrix over one scalar ring, stored as coordinates (see
    the module docstring).  Instances are treated as immutable once built.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, coords=None):
        if rows * cols >= 2**63:
            raise ValueError(f"{rows}x{cols} positions do not fit in int64")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._keys, self._vals = coords or (np.zeros(0, dtype=np.int64), _values(ring, []))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_grid(cls, ring: Ring, grid) -> "ExactMatrix":
        """Build from a dense grid in ``ring``'s layout, keeping its nonzero
        entries, reduced."""
        rows, cols = ring.shape(grid)
        if isinstance(ring, Rationals):
            flat = grid.reshape(-1)
            keys = np.flatnonzero(flat != 0)
            vals = flat[keys]
        elif isinstance(ring, SeriesRing):  # one coefficient layer per power of h
            digits = grid.reshape(ring.order, -1) % ring.p
            keys = np.flatnonzero(digits.any(axis=0))
            vals = _values(ring, list(map(tuple, digits[:, keys].T.tolist())))
        else:  # integers mod m: F_p and Z/p^N
            flat = grid.reshape(-1) % ring.modulus
            keys = np.flatnonzero(flat)
            vals = _values(ring, flat[keys].tolist())
        return cls(ring, rows, cols, coords=(keys, vals))

    @classmethod
    def from_coordinates(cls, ring: Ring, rows: int, cols: int, triples) -> "ExactMatrix":
        """Build from (row, col, value) triples, accumulating duplicates."""
        acc: dict[int, object] = {}
        zero = ring.zero()
        for i, j, v in triples:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
            key = i * cols + j
            acc[key] = ring.add(acc.get(key, zero), v)  # reduces v as well
        keys = sorted(k for k, v in acc.items() if not ring.is_zero(v))
        return cls(ring, rows, cols, coords=(np.asarray(keys, dtype=np.int64),
                                             _values(ring, [acc[k] for k in keys])))

    @classmethod
    def from_coo(cls, ring: Ring, rows: int, cols: int, row, col, value) -> "ExactMatrix":
        """Build from int64 coordinate arrays with integer values; repeated
        positions are summed."""
        keys, vals = _summed(np.asarray(row, dtype=np.int64) * cols + col,
                             np.asarray(value, dtype=np.int64), ring)
        if not isinstance(ring, PrimeField):  # one scalar object per distinct value
            distinct, index = np.unique(vals, return_inverse=True)
            vals = _values(ring, [ring.from_int(v) for v in distinct.tolist()])[index]
        return cls(ring, rows, cols, coords=(keys, vals))

    # -- queries -------------------------------------------------------------
    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        key = i * self.cols + j
        k = int(np.searchsorted(self._keys, key))
        if k < self._keys.size and self._keys[k] == key:
            return self._vals[k:k + 1].tolist()[0]
        return self.ring.zero()

    def nonzero_items(self):
        rows, cols = np.divmod(self._keys, max(self.cols, 1))
        return zip(zip(rows.tolist(), cols.tolist()), self._vals.tolist())

    def nnz(self) -> int:
        return self._keys.size

    def submatrix(self, row_index, col_index) -> "ExactMatrix":
        """Restriction to the given row/column subsets (reindexed)."""
        rmap = {r: k for k, r in enumerate(row_index)}
        cmap = {c: k for k, c in enumerate(col_index)}
        triples = [(rmap[i], cmap[j], v) for (i, j), v in self.nonzero_items()
                   if i in rmap and j in cmap]
        return ExactMatrix.from_coordinates(self.ring, len(rmap), len(cmap), triples)


def _require_field(ring: Ring):
    if not ring.is_field:
        raise NotAFieldError(
            f"rank/kernel/solve need field coefficients, got {ring!r}")
    if isinstance(ring, PrimeField) and ring.p > MAX_PRIME:
        raise ValueError(
            f"exact elimination over F{ring.p} is refused: int64 arithmetic is "
            f"exact only for p <= {MAX_PRIME}, where (p-1)^2 + (p-1) < 2^63")


# -- blocks ----------------------------------------------------------------------

def _components(u: np.ndarray, v: np.ndarray, nodes: int) -> np.ndarray:
    """Per node, the smallest node of its connected component (edges u-v).

    Each round hooks the larger label of every edge onto the smaller and
    then jumps pointers until every label is its own label; it stops when
    no edge joins two labels.
    """
    label = np.arange(nodes)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _blocks(mat: ExactMatrix):
    """Yield (cols, grid) per block: the block's global column indices
    (ascending) and its dense integer grid (residues over F_p), whose rows
    are the block's rows in ascending order."""
    ring = mat.ring
    if not mat._keys.size:
        return
    row, col = np.divmod(mat._keys, mat.cols)
    if isinstance(ring, PrimeField):
        vals = mat._vals % ring.p
    else:
        vals = _scaled_rows(row, mat._vals)
    label = _components(row, col + mat.rows, mat.rows + mat.cols)[row]
    order = np.argsort(label, kind="stable")
    row, col, vals, label = row[order], col[order], vals[order], label[order]
    bounds = np.flatnonzero(np.diff(label)) + 1
    for lo, hi in zip(np.r_[0, bounds].tolist(), np.r_[bounds, label.size].tolist()):
        rows, cols = np.unique(row[lo:hi]), np.unique(col[lo:hi])
        if rows.size * cols.size > BLOCK_CELL_LIMIT:
            raise BlockSizeError(rows.size, cols.size)
        grid = np.zeros((rows.size, cols.size), dtype=vals.dtype)
        grid[np.searchsorted(rows, row[lo:hi]), np.searchsorted(cols, col[lo:hi])] = vals[lo:hi]
        yield cols, grid


# -- elimination -----------------------------------------------------------------

@dataclass(frozen=True)
class _Reduced:
    """A canonical RREF: its pivot columns (ascending) and each nonzero
    entry of its rows outside the pivot columns, as the pivot column of the
    entry's row, the entry's column and its value num / den.  Over Q, num
    is the entry of the integer reduced row and den that row's pivot entry;
    den is None over F_p, where num holds residues."""

    pivots: list
    at_pivot: np.ndarray
    col: np.ndarray
    num: np.ndarray
    den: np.ndarray | None

    def entries(self, select=slice(None)):
        """(pivot column, column, scalar) of the selected entries."""
        nums = self.num[select].tolist()
        vals = nums if self.den is None else map(Fraction, nums, self.den[select].tolist())
        return zip(self.at_pivot[select].tolist(), self.col[select].tolist(), vals)


def _reduced_form(mat: ExactMatrix) -> _Reduced:
    """The canonical RREF of ``mat``, eliminated block by block."""
    ring = mat.ring
    _require_field(ring)
    parts = []
    for cols, grid in _blocks(mat):
        if isinstance(ring, PrimeField):
            reduced, pivots = _rref_mod_p(grid, ring.p)
        else:
            reduced, pivots = _rref_over_z(grid)
        num = reduced[:len(pivots)]
        if not pivots:
            continue
        i, j = np.nonzero(num)
        is_pivot = np.zeros(cols.size, dtype=bool)
        is_pivot[pivots] = True
        keep = ~is_pivot[j]
        i, j = i[keep], j[keep]
        parts.append((cols[pivots], cols[pivots][i], cols[j], num[i, j],
                      None if isinstance(ring, PrimeField) else num[i, np.array(pivots)[i]]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return _Reduced([], empty, empty, empty, None)
    pivots, at_pivot, col, num, den = (
        None if column[0] is None else np.concatenate(column) for column in zip(*parts))
    return _Reduced(sorted(pivots.tolist()), at_pivot, col, num, den)


# -- unit pivots -----------------------------------------------------------------

def _pivot_index(row, col, cand, rows: int, cols: int):
    """Per entry, the index in ``cand`` of the pivot in its row and of the
    pivot in its column, or -1 where there is none."""
    at_row, at_col = np.full(rows, -1), np.full(cols, -1)
    at_row[row[cand]] = at_col[col[cand]] = np.arange(cand.size)
    return at_row[row], at_col[col]


def _unit_pivots(mat: ExactMatrix) -> tuple[int, ExactMatrix]:
    """Eliminate unit pivots in rounds; returns (the number of pivots, the
    core), and rank(mat) is that number plus the rank of the core.

    The entries are integers: residues over F_p, and over Q the rows scaled
    by the lcm of their denominators.  The units among them are 1 and p - 1,
    or 1 and -1, so each pivot entry d is its own inverse.  A round chooses
    its pivots among the unit entries by Markowitz cost (r - 1)(c - 1), for
    r entries in the row and c in the column, with ties in position order:

    1. Per row, the cheapest unit entry, the first of them on a tie.  The
       keys are sorted, so a row's entries are contiguous and one segment
       minimum (``np.minimum.reduceat``) over the rows finds them all.
    2. Per column, the cheapest of those row winners, the first in position
       order on a tie: one ``lexsort`` of the row winners only, by (column,
       cost, position).
    3. The survivors in (cost, position) order, by a second ``lexsort``.
       For each nonzero entry that lies in one pivot's row and another
       pivot's column, the later of the two pivots in this order is dropped.

    The pivots R x C then meet in a diagonal submatrix diag(d), and the round
    replaces the matrix by the Schur complement
    A[~R, ~C] - A[~R, C] diag(d) A[R, ~C], whose rank is rank(A) minus the
    pivot count.  All products of one round are summed in one sort.  The
    core keeps the global row and column indices, with the pivot rows and
    columns empty; over Q its integer values become Fractions again.

    Every int64 value stays in range.  A cost is at most
    (cols - 1)(rows - 1) < rows * cols < 2^63.  Over F_p each product is
    formed from two residues and reduced, so it is below (p - 1)^2, and a
    cell sums at most min(rows, cols) of them and its old residue: below
    (p - 1)(min(rows, cols) + 1) < 2^63, because rows * cols < 2^63 and
    p <= MAX_PRIME.  Over Q a round runs only when (contributions per cell)
    * max|a| * max|b| + max|A| < 2^63.  Otherwise the rounds stop and the
    blocks reduce the core, switching to Python ints where they must.
    """
    ring = mat.ring
    rows, cols = mat.rows, mat.cols
    keys = mat._keys
    prime = isinstance(ring, PrimeField)
    vals = mat._vals if prime else _scaled_rows(keys // max(cols, 1), mat._vals)
    unit = ring.p - 1 if prime else -1
    count = 0
    while vals.size and vals.dtype != object:
        row, col = np.divmod(keys, cols)
        cand = np.flatnonzero((vals == 1) | (vals == unit))
        if not cand.size:
            break
        crow, ccol = row[cand], col[cand]
        cost = ((np.bincount(row, minlength=rows)[crow] - 1)
                * (np.bincount(col, minlength=cols)[ccol] - 1))
        starts = np.flatnonzero(_run_starts(crow))
        low = np.empty(rows, dtype=cost.dtype)
        low[crow[starts]] = np.minimum.reduceat(cost, starts)
        win = np.flatnonzero(cost == low[crow])
        win = win[_run_starts(crow[win])]
        by_col = np.lexsort((win, cost[win], ccol[win]))
        win = win[by_col[_run_starts(ccol[win][by_col])]]
        cand = cand[win[np.lexsort((win, cost[win]))]]
        kr, kc = _pivot_index(row, col, cand, rows, cols)
        cross = (kr != kc) & (np.minimum(kr, kc) >= 0)
        keep = np.ones(cand.size, dtype=bool)
        keep[np.maximum(kr[cross], kc[cross])] = False
        cand = cand[keep]
        kr, kc = _pivot_index(row, col, cand, rows, cols)
        in_r, in_c = kr >= 0, kc >= 0
        rest = ~(in_r | in_c)
        lower = np.flatnonzero(in_c > in_r)  # a = A[i, c_k], i not in R
        right = np.flatnonzero(in_r > in_c)  # b = A[r_k, j], j not in C
        at = kr[right]
        order = np.argsort(at, kind="stable")
        right, at = right[order], at[order]
        if not prime and lower.size and right.size:
            per_cell = int(np.bincount(row[lower]).max())
            if (per_cell * _magnitude(vals[lower]) * _magnitude(vals[right])
                    + _magnitude(vals[rest]) > INT64_MAX):
                break
        # each a in pivot k's column, times -d_k, meets each b in pivot k's row
        k = kc[lower]
        width = np.bincount(at, minlength=cand.size)[k]
        src = np.repeat(np.arange(lower.size), width)
        shift = np.searchsorted(at, k) - (np.cumsum(width) - width)
        dst = right[np.arange(src.size) + np.repeat(shift, width)]
        f = -vals[lower] * vals[cand][k]
        if prime:
            f %= ring.p
        prod = f[src] * vals[dst]
        if prime:
            prod %= ring.p
        keys, vals = _summed(np.concatenate([keys[rest], row[lower][src] * cols + col[dst]]),
                             np.concatenate([vals[rest], prod]), ring)
        count += cand.size
    core = vals if prime else np.frompyfunc(Fraction, 1, 1)(vals.astype(object))
    return count, ExactMatrix(ring, rows, cols, coords=(keys, core))


def rank(mat: ExactMatrix) -> int:
    """Row rank by exact Gaussian elimination (field coefficients only):
    the unit pivots of :func:`_unit_pivots`, then the core's RREF."""
    _require_field(mat.ring)
    count, core = _unit_pivots(mat)
    return count + len(_reduced_form(core).pivots)


def kernel_basis(mat: ExactMatrix) -> list[list]:
    """Basis of the right kernel {v : Mv = 0}, from the canonical RREF.

    One vector per free (non-pivot) column, in ascending column order: the
    free coordinate is one, the other free coordinates zero, and the pivot
    coordinates are read off the reduced rows.  The RREF is canonical, so
    the basis and its order do not depend on the block split.
    """
    ring = mat.ring
    red = _reduced_form(mat)
    pivots = set(red.pivots)
    basis = {}
    for free in range(mat.cols):
        if free not in pivots:
            basis[free] = [ring.zero()] * mat.cols
            basis[free][free] = ring.one()
    for c, free, v in red.entries():
        basis[free][c] = ring.neg(v)
    return list(basis.values())


def rank_and_solve(mat: ExactMatrix, rhs) -> tuple[int, list | None]:
    """rank(mat) and one exact solution of Mx = rhs (None when there is
    none), both from one elimination of the augmented matrix [M | rhs]."""
    ring = mat.ring
    _require_field(ring)
    rhs = list(rhs)
    if len(rhs) != mat.rows:
        raise ValueError(f"rhs has length {len(rhs)}, but the matrix has {mat.rows} rows")
    aug = ExactMatrix.from_coordinates(
        ring, mat.rows, mat.cols + 1,
        list(((i, j, v) for (i, j), v in mat.nonzero_items()))
        + [(i, mat.cols, v) for i, v in enumerate(rhs) if not ring.is_zero(v)])
    red = _reduced_form(aug)
    if red.pivots and red.pivots[-1] == mat.cols:
        return len(red.pivots) - 1, None
    x = [ring.zero()] * mat.cols
    for c, _, v in red.entries(red.col == mat.cols):
        x[c] = v
    return len(red.pivots), x


def solve(mat: ExactMatrix, rhs) -> list | None:
    """One exact solution of Mx = rhs, or None when the system is unsolvable."""
    return rank_and_solve(mat, rhs)[1]


# -- dump format -------------------------------------------------------------
#
# header line:  "rows cols modulus"  with modulus 0 for rationals and p for
# F_p, F_p[h]/h^N (values are comma-joined coefficient lists) and Z/p^N; one
# line per nonzero entry: "row col value", 0-based indices.  The header names
# only the characteristic, so a Z/p^N dump reads "p", not "p^N": the reader
# must be given the ring.  The text stays as it is because the answer digests
# in perfbench/expected.json pin it.

def _modulus_field(ring: Ring) -> int:
    if isinstance(ring, Rationals):
        return 0
    if isinstance(ring, PrimeField) or ring.is_truncated:
        return ring.p
    raise TypeError(f"no dump modulus for {ring!r}")


def dump_matrix(mat: ExactMatrix) -> str:
    lines = [f"{mat.rows} {mat.cols} {_modulus_field(mat.ring)}"]
    for (i, j), v in mat.nonzero_items():
        lines.append(f"{i} {j} {mat.ring.scalar_str(v)}")
    return "\n".join(lines) + "\n"


def load_matrix(text: str, ring: Ring) -> ExactMatrix:
    """Read a dump over ``ring``, refusing a header written for another modulus."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 3:
        raise ValueError("a matrix dump starts with the header line 'rows cols modulus'")
    rows, cols, modulus = map(int, header)
    if rows < 0 or cols < 0:
        raise ValueError(f"dump header gives negative dimensions {rows}x{cols}")
    if modulus != _modulus_field(ring):
        raise ValueError(f"dump header modulus {modulus} does not match ring {ring!r}")
    triples = []
    for ln in lines[1:]:
        i, j, value = ln.split(None, 2)
        i, j = int(i), int(j)
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"dump entry {ln.strip()!r} lies outside {rows}x{cols}")
        triples.append((i, j, ring.scalar_parse(value)))
    return ExactMatrix.from_coordinates(ring, rows, cols, triples)
