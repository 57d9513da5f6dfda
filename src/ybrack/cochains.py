"""The Yang-Baxter cochain complex of a rack operator.

A degree-n cochain is a matrix f: Q^n x Q^n -> coefficients, stored as the
array values[xcode, ycode] over lexicographic tuple codes.  The partial
coboundary with respect to position i of the output tuples is

    (d_i f)[x_0..x_n ; y_0..y_n]
        = f[..x_{i-1}, x_{i+1}.. ; ..]  *  [x_i^{x_{i+1}..x_n} == y_i^{y_{i+1}..y_n}]
        - f[x_0^{x_i}..x_{i-1}^{x_i}, x_{i+1}.. ; ..]  *  [x_i == y_i]

and the coboundary is the alternating sum over i = 0..n.  A summand only
reaches pairs within one key class of :func:`ybrack.indexing.position_data`,
each at most once, so it is an int64 gather plus an indexed add: exact, and
1/q of the pairs.  The matrix of d^n is the same incidence as coordinates.

Coefficients: a prime field reduces entries mod p; rationals are handled
with integer representatives (the complex maps are additive with unit
coefficients, so integer cochains span the rational theory and no
denominators ever arise outside of rank computations, whose RREF over Q
:mod:`ybrack.linalg` reconstructs from residues and certifies exactly).
Truncated-ring values are allowed for the degree-2 deformation terms but
not under the coboundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .indexing import (decode_tuple, pair_mask, position_data,
                       tuple_coordinates)
from .linalg import ExactMatrix
from .racks import RackTable, is_rack_homomorphism
from .rings import PrimeField, Rationals, Ring

DEGREE_CAP = 3          # cochain degrees supported as a target (d^2 needs one more)
MATRIX_ENTRY_CAP = 10**8


class SizeGuardError(ValueError):
    def __init__(self, dimension, cap):
        self.dimension = dimension
        self.cap = cap
        super().__init__(f"output space of size {dimension} exceeds the cap {cap}")


class CoefficientError(TypeError):
    pass


def _modulus(ring: Ring) -> int | None:
    if isinstance(ring, PrimeField):
        return ring.p
    if isinstance(ring, Rationals):
        return None
    raise CoefficientError(f"cochain complex needs field coefficients, got {ring!r}")


def _reduce(values: np.ndarray, ring: Ring) -> np.ndarray:
    mod = _modulus(ring)
    return values % mod if mod else values


@dataclass(frozen=True)
class Cochain:
    """An exact matrix-valued cochain f[xcode, ycode]."""

    rack: RackTable
    degree: int
    ring: Ring
    values: np.ndarray

    def __post_init__(self):
        expected = self.rack.size**self.degree
        shape = self.ring.shape(self.values) if self.ring.is_truncated else self.values.shape
        if shape != (expected, expected):
            raise ValueError(f"values have shape {shape}, expected {(expected, expected)}")

    @property
    def side(self) -> int:
        return self.rack.size**self.degree

    def entry(self, xs, ys):
        q = self.rack.size
        xi = 0
        yi = 0
        for x, y in zip(xs, ys):
            xi = xi * q + x
            yi = yi * q + y
        if self.ring.is_truncated:
            return self.ring.mat_entry(self.values, xi, yi)
        return self.values[xi, yi]

    def is_zero(self) -> bool:
        if self.ring.is_truncated:
            return self.ring.mat_is_zero(self.values)
        return not np.any(self.values)

    def _grid(self) -> np.ndarray:
        if self.ring.is_truncated:
            raise CoefficientError("operation needs field coefficients")
        return self.values

    def is_diagonal(self) -> bool:
        mask = pair_mask(self.rack, self.degree, "diagonal")
        return self._masked_is_zero(~mask)

    def is_quasidiagonal(self) -> bool:
        mask = pair_mask(self.rack, self.degree, "quasidiagonal")
        return self._masked_is_zero(~mask)

    def _masked_is_zero(self, mask) -> bool:
        masked = self.values * mask  # broadcasts over a leading layer axis
        if self.ring.is_truncated:
            return self.ring.mat_is_zero(masked)
        return not np.any(masked)

    def as_operator_matrix(self):
        """Ring-layout matrix with column = input tuple (transposed values)."""
        if self.ring.is_truncated:
            if self.values.ndim == 3:
                return np.ascontiguousarray(self.values.transpose(0, 2, 1))
            return np.ascontiguousarray(self.values.T)
        return np.ascontiguousarray(self.values.T)


def zero_cochain(rack: RackTable, degree: int, ring: Ring) -> Cochain:
    side = rack.size**degree
    if ring.is_truncated:
        return Cochain(rack, degree, ring, ring.zeros(side, side))
    return Cochain(rack, degree, ring, np.zeros((side, side), dtype=np.int64))


def cochain_from_entries(rack: RackTable, degree: int, ring: Ring, entries) -> Cochain:
    """Build from {(x-tuple, y-tuple): value} or a dense array."""
    if isinstance(entries, np.ndarray):
        return Cochain(rack, degree, ring, _reduce(entries.astype(np.int64), ring))
    out = zero_cochain(rack, degree, ring)
    q = rack.size
    for (xs, ys), v in entries.items():
        xi = 0
        yi = 0
        for x, y in zip(xs, ys):
            xi = xi * q + x
            yi = yi * q + y
        if ring.is_truncated:
            ring.mat_set_entry(out.values, xi, yi, v)
        else:
            out.values[xi, yi] = v
    return Cochain(rack, degree, ring, _reduce(out.values, ring))


def add(f: Cochain, g: Cochain) -> Cochain:
    return Cochain(f.rack, f.degree, f.ring, _reduce(f._grid() + g._grid(), f.ring))


def sub(f: Cochain, g: Cochain) -> Cochain:
    return Cochain(f.rack, f.degree, f.ring, _reduce(f._grid() - g._grid(), f.ring))


def scale(k: int, f: Cochain) -> Cochain:
    return Cochain(f.rack, f.degree, f.ring, _reduce(k * f._grid(), f.ring))


def identity_cochain(rack: RackTable, degree: int, ring: Ring) -> Cochain:
    side = rack.size**degree
    return Cochain(rack, degree, ring, np.eye(side, dtype=np.int64))


# -- coboundary ----------------------------------------------------------------

def _pair_codes(codes: np.ndarray, side: int) -> np.ndarray:
    """Codes x * side + y of every pair (x, y) within each last-axis group."""
    return codes[..., :, None] * side + codes[..., None, :]


def _signed_partials(f: Cochain, signs: dict[int, int]) -> Cochain:
    """The sum of sign * d_i f over {i: sign}, in pair codes: per summand one
    gather from f and one indexed add into the output."""
    side = f.rack.size ** (f.degree + 1)
    out = np.zeros(side * side, dtype=np.int64)
    flat = f._grid().reshape(-1)
    for i, sign in signs.items():
        data = position_data(f.rack, f.degree + 1, i)
        rows = _pair_codes(data.members, side)
        vals = flat[_pair_codes(data.sources, side // f.rack.size)]
        plus, minus = (0, 1) if sign > 0 else (1, 0)
        out[rows[plus]] += vals[plus]
        out[rows[minus]] -= vals[minus]
    return Cochain(f.rack, f.degree + 1, f.ring, _reduce(out.reshape(side, side), f.ring))


def partial_coboundary(f: Cochain, i: int) -> Cochain:
    if not 0 <= i <= f.degree:
        raise IndexError(f"partial coboundary index {i} outside 0..{f.degree}")
    return _signed_partials(f, {i: 1})


def coboundary(f: Cochain) -> Cochain:
    return _signed_partials(f, {i: (-1) ** i for i in range(f.degree + 1)})


def coboundary_matrix(rack: RackTable, ring: Ring, degree: int,
                      cap: int = MATRIX_ENTRY_CAP, subcomplex: str = "full") -> ExactMatrix:
    """Sparse matrix of d^degree in the pair-code basis.

    Rows are indexed by q^(2(degree+1)) output pairs, columns by q^(2 degree)
    input pairs; each row has at most 2(degree+1) nonzero entries.  A
    ``subcomplex`` "diagonal" or "quasidiagonal" restricts rows and columns
    to its :func:`pair_basis` before the matrix is built.
    """
    _modulus(ring)  # reject truncated coefficient rings early
    q = rack.size
    out_dim = q ** (2 * (degree + 1))
    if out_dim > cap:
        raise SizeGuardError(out_dim, cap)
    in_dim = q ** (2 * degree)
    data = [position_data(rack, degree + 1, i) for i in range(degree + 1)]
    rows = _pair_codes(np.stack([d.members for d in data]), q ** (degree + 1))
    cols = _pair_codes(np.stack([d.sources for d in data]), q**degree)
    # summand s of position i enters with sign (-1)^(i+s)
    signs = np.array([[(-1) ** (i + s) for s in (0, 1)] for i in range(degree + 1)])
    signs = np.broadcast_to(signs[:, :, None, None, None], rows.shape).reshape(-1)
    rows, cols = rows.reshape(-1), cols.reshape(-1)
    if subcomplex != "full":
        mask_out = pair_mask(rack, degree + 1, subcomplex).reshape(-1)
        mask_in = pair_mask(rack, degree, subcomplex).reshape(-1)
        keep = mask_out[rows] & mask_in[cols]
        basis_out, basis_in = np.flatnonzero(mask_out), np.flatnonzero(mask_in)
        rows = np.searchsorted(basis_out, rows[keep])
        cols = np.searchsorted(basis_in, cols[keep])
        signs = signs[keep]
        out_dim, in_dim = basis_out.size, basis_in.size
    return ExactMatrix.from_coo(ring, out_dim, in_dim, rows, cols, signs)


def cochain_to_vector(f: Cochain) -> list:
    """Flatten into the pair-code basis used by coboundary_matrix."""
    grid = _reduce(f._grid(), f.ring)
    return [f.ring.from_int(int(v)) for v in grid.reshape(-1)]


def vector_to_cochain(rack: RackTable, degree: int, ring: Ring, vec) -> Cochain:
    side = rack.size**degree
    grid = np.zeros((side, side), dtype=np.int64)
    for code, v in enumerate(vec):
        grid[code // side, code % side] = int(v)
    return Cochain(rack, degree, ring, _reduce(grid, ring))


# -- subcomplexes ----------------------------------------------------------------

def pair_basis(rack: RackTable, degree: int, mode: str) -> list[int]:
    """Pair codes spanning the diagonal or quasi-diagonal subcomplex, sorted."""
    return np.flatnonzero(pair_mask(rack, degree, mode)).tolist()


def project_diagonal(f: Cochain) -> Cochain:
    mask = pair_mask(f.rack, f.degree, "diagonal")
    return Cochain(f.rack, f.degree, f.ring, f._grid() * mask)


def project_quasidiagonal(f: Cochain) -> Cochain:
    mask = pair_mask(f.rack, f.degree, "quasidiagonal")
    return Cochain(f.rack, f.degree, f.ring, f._grid() * mask)


def cohomology_dim(rack: RackTable, ring: Ring, degree: int,
                   subcomplex: str = "full", cap: int = MATRIX_ENTRY_CAP,
                   degree_cap: int = DEGREE_CAP) -> int:
    """dim ker d^degree - rank d^(degree-1), all ranks exact.

    ``subcomplex`` is "full", "diagonal" or "quasidiagonal"; the latter two
    restrict both coboundary matrices to the corresponding pair basis (the
    subcomplexes are closed under d, so this is the subcomplex cohomology).
    Degrees above ``degree_cap`` are refused; raise the cap explicitly for
    larger computations (the entry-count guard still applies).
    """
    if degree < 2:
        raise ValueError("cohomology needs degree >= 2 (uses d^(n-1) and d^n)")
    if degree > degree_cap:
        raise ValueError(f"degree {degree} above the supported cap {degree_cap}")
    d_low = coboundary_matrix(rack, ring, degree - 1, cap=cap, subcomplex=subcomplex)
    d_high = coboundary_matrix(rack, ring, degree, cap=cap, subcomplex=subcomplex)
    kernel_dim = d_high.cols - linalg.rank(d_high)
    return kernel_dim - linalg.rank(d_low)


# -- rack cochain complex ---------------------------------------------------------

@dataclass(frozen=True)
class RackCochain:
    """A map Q^degree -> coefficients, stored as values[tuplecode]."""

    rack: RackTable
    degree: int
    ring: Ring
    values: np.ndarray

    def entry(self, xs):
        q = self.rack.size
        code = 0
        for x in xs:
            code = code * q + x
        return self.values[code]

    def is_zero(self) -> bool:
        return not np.any(self.values)


def zero_rack_cochain(rack: RackTable, degree: int, ring: Ring) -> RackCochain:
    return RackCochain(rack, degree, ring,
                       np.zeros(rack.size**degree, dtype=np.int64))


def rack_coboundary(lam: RackCochain) -> RackCochain:
    """Alternating sum over i = 1..n of lam(drop i) - lam(conjugate prefix, drop i)."""
    n = lam.degree
    size = lam.rack.size ** (n + 1)
    total = np.zeros(size, dtype=np.int64)
    for i in range(1, n + 1):
        data = position_data(lam.rack, n + 1, i)
        term = lam.values[data.drop] - lam.values[data.conj]
        total += -term if i % 2 else term
    return RackCochain(lam.rack, n + 1, lam.ring, _reduce(total, lam.ring))


def rack_coboundary_matrix(rack: RackTable, ring: Ring, degree: int) -> ExactMatrix:
    q = rack.size
    rows = q ** (degree + 1)
    data = [position_data(rack, degree + 1, i) for i in range(1, degree + 1)]
    cols = np.array([(d.drop, d.conj) for d in data], dtype=np.int64)
    signs = np.array([((-1) ** i, -(-1) ** i) for i in range(1, degree + 1)], dtype=np.int64)
    return ExactMatrix.from_coo(ring, rows, q**degree, np.tile(np.arange(rows), 2 * degree),
                                cols.reshape(-1), np.repeat(signs.reshape(-1), rows))


def rack_cohomology_dim(rack: RackTable, ring: Ring, degree: int) -> int:
    if degree < 2:
        raise ValueError("rack cohomology dimension needs degree >= 2")
    _modulus(ring)
    d_low = rack_coboundary_matrix(rack, ring, degree - 1)
    d_high = rack_coboundary_matrix(rack, ring, degree)
    return (d_high.cols - linalg.rank(d_high)) - linalg.rank(d_low)


def diagonal_part(f: Cochain) -> RackCochain:
    """The identification of a diagonal cochain with a rack cochain."""
    side = f.side
    diag = f._grid()[np.arange(side), np.arange(side)]
    return RackCochain(f.rack, f.degree, f.ring, diag.copy())


def from_rack_cochain(lam: RackCochain) -> Cochain:
    side = lam.rack.size**lam.degree
    grid = np.zeros((side, side), dtype=np.int64)
    grid[np.arange(side), np.arange(side)] = lam.values
    return Cochain(lam.rack, lam.degree, lam.ring, grid)


# -- entropic cochains and equivariance --------------------------------------------

def is_entropic(f: Cochain) -> bool:
    """True iff every partial coboundary d_i f, i = 0..degree, vanishes."""
    return all(partial_coboundary(f, i).is_zero() for i in range(f.degree + 1))


def is_fully_equivariant(f: Cochain) -> bool:
    """Invariance under the inner group acting coordinatewise and independently."""
    n = f.degree
    q = f.rack.size
    grid = f._grid()
    coords = tuple_coordinates(q, n)
    gens = {f.rack.column(a) for a in range(q)}
    for j in range(n):
        weight = q ** (n - 1 - j)
        for gen in gens:
            gen_arr = np.asarray(gen, dtype=np.int64)
            moved = np.arange(q**n, dtype=np.int64) + (gen_arr[coords[j]] - coords[j]) * weight
            if not np.array_equal(grid, grid[np.ix_(moved, moved)]):
                return False
    return True


# -- induced maps -------------------------------------------------------------------

def pullback(phi, f: Cochain, source: RackTable) -> Cochain:
    """Indexwise pullback along a rack homomorphism phi: source -> f.rack.

    This is the natural candidate for an induced map, and it is NOT a
    cochain map in general: the coboundary involves the rack operation,
    which phi need not intertwine entrywise on non-quasi-diagonal pairs.
    """
    phi = tuple(phi)
    if not is_rack_homomorphism(source, f.rack, phi):
        raise ValueError("pullback needs a verified rack homomorphism")
    n = f.degree
    q_src = source.size
    q_dst = f.rack.size
    phi_arr = np.asarray(phi, dtype=np.int64)
    coords = tuple_coordinates(q_src, n)
    target_codes = np.zeros(q_src**n, dtype=np.int64)
    for j in range(n):
        target_codes = target_codes * q_dst + phi_arr[coords[j]]
    grid = f._grid()[np.ix_(target_codes, target_codes)]
    return Cochain(source, n, f.ring, grid.copy())


# -- dump format ---------------------------------------------------------------------

def dump_cochain(f: Cochain) -> str:
    from .rings import ring_spec
    lines = [f"degree {f.degree} ring {ring_spec(f.ring)}"]
    q = f.rack.size
    if f.ring.is_truncated:
        side = f.side
        for xi in range(side):
            for yi in range(side):
                v = f.ring.mat_entry(f.values, xi, yi)
                if f.ring.is_zero(v):
                    continue
                xs = decode_tuple(q, xi, f.degree)
                ys = decode_tuple(q, yi, f.degree)
                coords = " ".join(map(str, xs + ys))
                lines.append(f"{coords} {f.ring.scalar_str(v)}")
        return "\n".join(lines) + "\n"
    for xi, yi in zip(*np.nonzero(f.values)):
        xs = decode_tuple(q, int(xi), f.degree)
        ys = decode_tuple(q, int(yi), f.degree)
        coords = " ".join(map(str, xs + ys))
        lines.append(f"{coords} {f.ring.scalar_str(f.ring.from_int(int(f.values[xi, yi])))}")
    return "\n".join(lines) + "\n"
