"""Exact linear algebra over the fields of :mod:`ybrack.rings`.

Rank, kernel bases and linear solving are read off the reduced row echelon
form (RREF), which is canonical for a matrix over a field, so every answer
is independent of how the elimination is organised.  There is one
elimination path for every field:

1. **Blocks.**  The nonzero entries are split into the connected components
   of the row/column incidence graph.  Distinct blocks share no row and no
   column, so the RREF of the matrix is the union of the blocks' RREFs and
   each block is eliminated on its own as a dense grid.
2. **Over F_p** a block is reduced mod p with int64 arithmetic, which is
   exact for p up to :data:`MAX_PRIME`; larger primes are refused.
3. **Over Q** every row is first scaled by the lcm of its denominators
   (same row space, same RREF).  A block is reduced mod 2^31 - 1, its
   reduced rows are rebuilt by rational reconstruction, and the result is
   certified in exact integer arithmetic (:func:`_certify`).  When the
   reconstruction or the certificate fails, further primes are combined by
   CRT; an uncertified RREF is never returned.

Pivoting is deterministic (the first nonzero entry of a column, in row
order).

A matrix is stored as coordinates: the sorted flat positions
``row * cols + col`` of its nonzero entries and their reduced values (int64
residues over a prime field, ring scalars otherwise).  A dense grid in its
ring's layout enters through :meth:`ExactMatrix.from_grid`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rings import (INT64_MAX, NotAFieldError, PrimeField, Rationals, Ring,
                    SeriesRing, _is_prime)

# The largest prime p whose elimination stays inside int64: every value it
# forms lies within (p - 1)^2 + (p - 1) < 2^63.
MAX_PRIME = 3_037_000_493
# Dense cells allowed in one block; a larger block is refused.
BLOCK_CELL_LIMIT = 40_000_000


class BlockSizeError(ValueError):
    def __init__(self, rows, cols):
        super().__init__(f"a connected {rows}x{cols} block exceeds the dense "
                         f"elimination limit of {BLOCK_CELL_LIMIT} cells")


class CertificationError(ArithmeticError):
    """No certified RREF over Q within the primes its Hadamard bound needs."""


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
        positions are summed (sort, then one segment sum)."""
        keys = np.asarray(row, dtype=np.int64) * cols + col
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(np.asarray(value, dtype=np.int64)[order], starts)
        if isinstance(ring, PrimeField):
            sums = sums % ring.p
        keep = sums != 0
        vals = sums[keep]
        if not isinstance(ring, PrimeField):  # one scalar object per distinct value
            distinct, index = np.unique(vals, return_inverse=True)
            vals = _values(ring, [ring.from_int(v) for v in distinct.tolist()])[index]
        return cls(ring, rows, cols, coords=(keys[starts][keep], vals))

    # -- queries -------------------------------------------------------------
    def entry(self, i: int, j: int):
        k = int(np.searchsorted(self._keys, i * self.cols + j))
        if k < self._keys.size and self._keys[k] == i * self.cols + j:
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

def _scaled_rows(row: np.ndarray, values: list) -> np.ndarray:
    """Rational entries as integers, each row scaled by the lcm of its
    denominators: int64 when every value fits, else Python ints."""
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    if any(d != 1 for d in dens):
        lcm: dict[int, int] = {}
        for i, d in zip(row.tolist(), dens):
            lcm[i] = math.lcm(lcm.get(i, 1), d)
        nums = [n * (lcm[i] // d) for i, n, d in zip(row.tolist(), nums, dens)]
    try:
        return np.array(nums, dtype=np.int64)
    except OverflowError:
        return np.array(nums, dtype=object)


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
        vals = _scaled_rows(row, mat._vals.tolist())
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

def _rref_mod_p(a: np.ndarray, p: int):
    """RREF mod p of an int64 grid of residues, which it reduces in place
    (the caller passes a grid it owns); returns (the grid, pivot columns).

    A pivot row only changes the other rows in the columns where it is
    nonzero, so each step updates just those cells.
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = a[:, c].nonzero()[0]
        k = hit.searchsorted(r)
        if k == hit.size:
            continue
        piv = hit[k]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        others = hit[hit != piv, None]  # after the swap, the rows to clear
        support = c + a[r, c:].nonzero()[0]
        prow = a[r, support] * pow(int(a[r, c]), -1, p) % p
        a[r, support] = prow
        if others.size:
            a[others, support] = (a[others, support] - a[others, c] * prow) % p
        pivots.append(c)
        r += 1
    return a, pivots


@functools.cache
def _prime(k: int) -> int:
    """The k-th elimination prime over Q: 2^31 - 1, then the primes from
    MAX_PRIME downwards."""
    if k < 2:
        return (2**31 - 1, MAX_PRIME)[k]
    n = _prime(k - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


def _prime_budget(grid: np.ndarray) -> int:
    """Primes within which a certified RREF must be found.

    Each RREF entry is a ratio of two r x r minors, and every minor is at
    most H (Hadamard: the product of the r largest row norms).  A prime that
    gives the wrong pivots divides a nonzero minor, and once the good primes
    multiply past 2 H^2 reconstruction is exact; every prime exceeds 2^30.
    """
    wide = grid.dtype == object or int(np.abs(grid).max()) ** 2 * grid.shape[1] > INT64_MAX
    norms = ((grid.astype(object) if wide else grid) ** 2).sum(axis=1).tolist()
    largest = sorted(norms, reverse=True)[:min(grid.shape)]
    h = math.isqrt(math.prod(max(v, 1) for v in largest)) + 1
    return -(-h.bit_length() // 30) - (-(2 * h * h).bit_length() // 30) + 1


def _crt(residues: np.ndarray, modulus: int, new: np.ndarray, p: int) -> np.ndarray:
    """The residues mod modulus * p agreeing with both inputs."""
    residues = residues.astype(object)
    step = (new.astype(object) - residues) * pow(modulus % p, -1, p) % p
    return residues + modulus * step


def _reconstruct(residues: np.ndarray, modulus: int):
    """Rational reconstruction (Wang): per entry the a/b with a = b u mod m
    and |a|, b <= sqrt(m/2), as (numerators, denominators); None when some
    entry has no such fraction.  Entries u <= sqrt(m/2) are u/1 already."""
    bound = math.isqrt(modulus // 2)
    dtype = np.int64 if modulus < 2**62 else object
    num = residues.astype(dtype).reshape(-1)
    den = np.ones_like(num)
    todo = np.flatnonzero(num > bound)
    r0, r1 = np.full(todo.size, modulus, dtype=dtype), num[todo]
    s0, s1 = np.zeros(todo.size, dtype=dtype), np.ones(todo.size, dtype=dtype)
    while True:  # extended Euclid on (m, u) until the remainder drops to the bound
        act = r1 > bound
        if not act.any():
            break
        q = r0[act] // r1[act]
        r0[act], r1[act] = r1[act], r0[act] - q * r1[act]
        s0[act], s1[act] = s1[act], s0[act] - q * s1[act]
    sign = np.where(s1 < 0, -1, 1)
    num[todo], den[todo] = r1 * sign, s1 * sign
    if np.any(den > bound):
        return None
    return num.reshape(residues.shape), den.reshape(residues.shape)


def _certify(grid: np.ndarray, pivots: list, num: np.ndarray, den: np.ndarray) -> bool:
    """True iff R = num/den is the RREF over Q of the integer grid M.

    ``pivots`` come from an elimination mod a prime, so rank M >= r.  The
    check is exact: R is zero left of each pivot, and L M = M[:, P] (L R)
    with L the lcm of the denominators.  That identity gives rank M <= r,
    so M[:, P] has full column rank, R[:, P] = I and R spans the row space
    of M: R is the canonical RREF.  The integer arithmetic is int64 when a
    bound on every partial sum fits, else Python ints.
    """
    r, n = num.shape
    if np.any(num[np.arange(n)[None, :] < np.asarray(pivots, dtype=np.int64)[:, None]]):
        return False
    lcm = math.lcm(*set(den.reshape(-1).tolist()))
    amax = max(int(grid.max()), -int(grid.min()))
    bound = lcm * amax * (1 + r * int(np.abs(num).max(initial=0)))
    dtype = np.int64 if bound <= INT64_MAX else object
    a = grid.astype(dtype, copy=False)
    scaled = num.astype(dtype) * (lcm // den.astype(dtype))
    resid = a * lcm
    for k, c in enumerate(pivots):
        hit = a[:, c].nonzero()[0]
        resid[hit] -= a[hit, c, None] * scaled[k]
    return not resid.any()


def _rational_rref(grid: np.ndarray):
    """Certified RREF over Q of an integer grid: (pivots, numerators,
    denominators) of its reduced rows."""
    best = residues = budget = None
    modulus = 1
    for k in itertools.count():
        if k == 1:  # the first prime did not certify
            budget = _prime_budget(grid)
        if k and k >= budget:
            raise CertificationError(f"no certified RREF of a {grid.shape[0]}x"
                                     f"{grid.shape[1]} block after {k} primes")
        p = _prime(k)
        rows, pivots = _rref_mod_p(np.asarray(grid % p, dtype=np.int64), p)
        rows = rows[:len(pivots)].copy()  # lets the full reduced grid go
        # more pivots, or as many but earlier ones: every earlier prime was bad
        if best is None or (len(pivots), best) > (len(best), pivots):
            best, residues, modulus = pivots, rows, p
        elif pivots == best:
            residues, modulus = _crt(residues, modulus, rows, p), modulus * p
        else:
            continue
        rebuilt = _reconstruct(residues, modulus)
        if rebuilt is not None and _certify(grid, best, *rebuilt):
            return best, *rebuilt


@dataclass(frozen=True)
class _Reduced:
    """A canonical RREF: its pivot columns (ascending) and each nonzero
    entry of its rows outside the pivot columns, as the pivot column of the
    entry's row, the entry's column and its value num / den (den is None
    over F_p, where num holds residues)."""

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
            num, den = reduced[:len(pivots)], None
        else:
            pivots, num, den = _rational_rref(grid)
        if not pivots:
            continue
        i, j = np.nonzero(num)
        is_pivot = np.zeros(cols.size, dtype=bool)
        is_pivot[pivots] = True
        keep = ~is_pivot[j]
        i, j = i[keep], j[keep]
        parts.append((cols[pivots], cols[pivots][i], cols[j], num[i, j],
                      None if den is None else den[i, j]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return _Reduced([], empty, empty, empty, None)
    pivots, at_pivot, col, num, den = (
        None if column[0] is None else np.concatenate(column) for column in zip(*parts))
    return _Reduced(sorted(pivots.tolist()), at_pivot, col, num, den)


def rank(mat: ExactMatrix) -> int:
    """Row rank by exact Gaussian elimination (field coefficients only)."""
    return len(_reduced_form(mat).pivots)


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
