"""Exact linear algebra over the fields of :mod:`ybrack.rings`.

Rank, kernel bases and linear solving are computed from the reduced row
echelon form, which is canonical for a matrix over a field.  That gives a
useful guarantee: the vectorised mod-p path and the generic fraction path
produce bit-identical answers, and any parallel variant is forced to agree
with the sequential one.  Pivoting is deterministic (first nonzero entry in
row-major order).

A matrix is a dense grid in its ring's layout, or coordinates: the sorted
flat positions ``row * cols + col`` of its nonzero entries and their values
(int64 residues over a prime field, ring scalars otherwise).
"""

from __future__ import annotations

import numpy as np

from .rings import NotAFieldError, PrimeField, Rationals, Ring

# Above this many entries a prime-field matrix is eliminated sparsely even
# when densification would fit in memory; keeps degree-3 coboundaries viable.
_DENSE_ELIMINATION_LIMIT = 40_000_000


def _values(ring: Ring, values) -> np.ndarray:
    """Coordinate values: int64 residues over a prime field, else objects."""
    if isinstance(ring, PrimeField):
        return np.asarray(values, dtype=np.int64).reshape(-1)
    return np.fromiter(values, dtype=object, count=len(values))


class ExactMatrix:
    """A rows x cols matrix over one scalar ring.

    Storage is a dense grid or coordinates (see the module docstring); all
    query operations are storage agnostic.  Instances are treated as
    immutable once built.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, entries=None, coords=None):
        if rows * cols >= 2**63:
            raise ValueError(f"{rows}x{cols} positions do not fit in int64")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._dense = entries
        self._keys, self._vals = coords or (np.zeros(0, dtype=np.int64), _values(ring, []))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_rows(cls, ring: Ring, grid) -> "ExactMatrix":
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        out = ring.zeros(rows, cols)
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                ring.mat_set_entry(out, i, j, v)
        return cls(ring, rows, cols, entries=out)

    @classmethod
    def from_coordinates(cls, ring: Ring, rows: int, cols: int, triples) -> "ExactMatrix":
        """Build from (row, col, value) triples, accumulating duplicates."""
        acc: dict[int, object] = {}
        for i, j, v in triples:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
            key = i * cols + j
            cur = acc.get(key)
            acc[key] = v if cur is None else ring.add(cur, v)
        keys = sorted(k for k, v in acc.items() if not ring.is_zero(v))
        return cls(ring, rows, cols, coords=(np.asarray(keys, dtype=np.int64),
                                             _values(ring, [acc[k] for k in keys])))

    @classmethod
    def from_coo(cls, ring: Ring, rows: int, cols: int, row, col, value) -> "ExactMatrix":
        """Build from int64 coordinate arrays with integer values; repeated
        positions are summed (sort, then one segment sum)."""
        keys = np.asarray(row, dtype=np.int64) * cols + col
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(np.asarray(value, dtype=np.int64)[order], starts)
        if isinstance(ring, PrimeField):
            sums = sums % ring.p
        keep = sums != 0
        sums = sums[keep] if isinstance(ring, PrimeField) else \
            [ring.from_int(v) for v in sums[keep].tolist()]
        return cls(ring, rows, cols, coords=(keys[starts][keep], _values(ring, sums)))

    # -- queries -------------------------------------------------------------
    def entry(self, i: int, j: int):
        if self._dense is not None:
            return self.ring.mat_entry(self._dense, i, j)
        k = int(np.searchsorted(self._keys, i * self.cols + j))
        if k < self._keys.size and self._keys[k] == i * self.cols + j:
            return self._vals[k:k + 1].tolist()[0]
        return self.ring.zero()

    def nonzero_items(self):
        if self._dense is None:
            rows, cols = np.divmod(self._keys, max(self.cols, 1))
            yield from zip(zip(rows.tolist(), cols.tolist()), self._vals.tolist())
            return
        for i in range(self.rows):
            for j in range(self.cols):
                v = self.ring.mat_entry(self._dense, i, j)
                if not self.ring.is_zero(v):
                    yield (i, j), v

    def nnz(self) -> int:
        if self._dense is None:
            return self._keys.size
        return sum(1 for _ in self.nonzero_items())

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_coordinates(
            self.ring, self.cols, self.rows,
            ((j, i, v) for (i, j), v in self.nonzero_items()))

    def apply(self, vec):
        """Matrix-vector product with a length-cols list of scalars."""
        ring = self.ring
        out = [ring.zero()] * self.rows
        for (i, j), v in self.nonzero_items():
            out[i] = ring.add(out[i], ring.mul(v, vec[j]))
        return out

    def submatrix(self, row_index, col_index) -> "ExactMatrix":
        """Restriction to the given row/column subsets (reindexed)."""
        rmap = {r: k for k, r in enumerate(row_index)}
        cmap = {c: k for k, c in enumerate(col_index)}
        triples = [(rmap[i], cmap[j], v) for (i, j), v in self.nonzero_items()
                   if i in rmap and j in cmap]
        return ExactMatrix.from_coordinates(self.ring, len(rmap), len(cmap), triples)

    def to_int_grid(self):
        """Dense int64 grid for prime-field matrices."""
        if not isinstance(self.ring, PrimeField):
            raise NotAFieldError("dense int grid only available over prime fields")
        if self._dense is not None:
            return self._dense % self.ring.p
        grid = np.zeros(self.rows * self.cols, dtype=np.int64)
        grid[self._keys] = self._vals % self.ring.p
        return grid.reshape(self.rows, self.cols)


def _require_field(ring: Ring):
    if not ring.is_field:
        raise NotAFieldError(
            f"rank/kernel/solve need field coefficients, got {ring!r}")


def _rref_mod_p(grid: np.ndarray, p: int):
    """RREF of an int64 grid mod p; returns (reduced grid, pivot columns)."""
    a = grid % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        coeffs = a[:, c].copy()
        coeffs[r] = 0
        mask = coeffs != 0
        if np.any(mask):
            a[mask, c:] = (a[mask, c:] - np.outer(coeffs[mask], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _rref_sparse(rows_data: list[dict], cols: int, ring: Ring):
    """Generic sparse RREF over any field ring; rows are col->value dicts."""
    pivots = []
    r = 0
    nrows = len(rows_data)
    for c in range(cols):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if c in rows_data[k]), None)
        if piv is None:
            continue
        rows_data[r], rows_data[piv] = rows_data[piv], rows_data[r]
        inv = ring.inv(rows_data[r][c])
        rows_data[r] = {j: ring.mul(inv, v) for j, v in rows_data[r].items()}
        pivot_row = rows_data[r]
        for k in range(nrows):
            if k == r:
                continue
            coeff = rows_data[k].get(c)
            if coeff is None:
                continue
            row = rows_data[k]
            for j, v in pivot_row.items():
                cur = row.get(j, ring.zero())
                new = ring.sub(cur, ring.mul(coeff, v))
                if ring.is_zero(new):
                    row.pop(j, None)
                else:
                    row[j] = new
        pivots.append(c)
        r += 1
    return rows_data, pivots


def _reduced_form(mat: ExactMatrix):
    """Canonical RREF as (pivot columns, {pivot col: row dict})."""
    _require_field(mat.ring)
    if isinstance(mat.ring, PrimeField) and mat.rows * mat.cols <= _DENSE_ELIMINATION_LIMIT:
        grid, pivots = _rref_mod_p(mat.to_int_grid(), mat.ring.p)
        rowmap = {}
        for r, c in enumerate(pivots):
            cols = np.nonzero(grid[r])[0]
            rowmap[c] = {int(j): int(grid[r, j]) for j in cols}
        return pivots, rowmap
    rows_data = [dict() for _ in range(mat.rows)]
    for (i, j), v in mat.nonzero_items():
        rows_data[i][j] = v
    rows_data, pivots = _rref_sparse(rows_data, mat.cols, mat.ring)
    rowmap = {c: rows_data[r] for r, c in enumerate(pivots)}
    return pivots, rowmap


def rank(mat: ExactMatrix) -> int:
    """Row rank by exact Gaussian elimination (field coefficients only)."""
    pivots, _ = _reduced_form(mat)
    return len(pivots)


def kernel_basis(mat: ExactMatrix) -> list[list]:
    """Basis of the right kernel {v : Mv = 0}, from the canonical RREF.

    One vector per free column, in column order; the free coordinate is set
    to one and pivot coordinates are read off the reduced rows, so the basis
    is deterministic.
    """
    ring = mat.ring
    pivots, rowmap = _reduced_form(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(mat.cols):
        if free in pivot_set:
            continue
        vec = [ring.zero()] * mat.cols
        vec[free] = ring.one()
        for c in pivots:
            coeff = rowmap[c].get(free)
            if coeff is not None:
                vec[c] = ring.neg(coeff)
        basis.append(vec)
    return basis


def solve(mat: ExactMatrix, rhs) -> list | None:
    """One exact solution of Mx = rhs, or None when the system is unsolvable."""
    ring = mat.ring
    _require_field(ring)
    aug = ExactMatrix.from_coordinates(
        ring, mat.rows, mat.cols + 1,
        list(((i, j, v) for (i, j), v in mat.nonzero_items()))
        + [(i, mat.cols, v) for i, v in enumerate(rhs) if not ring.is_zero(v)])
    pivots, rowmap = _reduced_form(aug)
    if mat.cols in pivots:
        return None
    x = [ring.zero()] * mat.cols
    for c in pivots:
        x[c] = rowmap[c].get(mat.cols, ring.zero())
    return x


# -- dump format -------------------------------------------------------------
#
# header line:  "rows cols modulus"  with modulus 0 for rationals, p for F_p,
# p for F_p[h]/h^N (values are comma-joined coefficient lists) and p^N for
# Z/p^N; one line per nonzero entry: "row col value", 0-based indices.

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


def load_matrix(text: str, ring: Ring | None = None) -> ExactMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols, modulus = lines[0].split()
    rows, cols, modulus = int(rows), int(cols), int(modulus)
    if ring is None:
        ring = Rationals() if modulus == 0 else PrimeField(modulus)
    triples = []
    for ln in lines[1:]:
        i, j, value = ln.split(None, 2)
        triples.append((int(i), int(j), ring.scalar_parse(value)))
    return ExactMatrix.from_coordinates(ring, rows, cols, triples)
