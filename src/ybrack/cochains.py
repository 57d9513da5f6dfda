"""The Yang-Baxter cochain complex of a rack operator.

A degree-n cochain is a matrix f: Q^n x Q^n -> coefficients, stored as the
array values[xcode, ycode] over lexicographic tuple codes.  The partial
coboundary with respect to position i of the output tuples is

    (d_i f)[x_0..x_n ; y_0..y_n]
        = f[..x_{i-1}, x_{i+1}.. ; ..]  *  [x_i^{x_{i+1}..x_n} == y_i^{y_{i+1}..y_n}]
        - f[x_0^{x_i}..x_{i-1}^{x_i}, x_{i+1}.. ; ..]  *  [x_i == y_i]

and the coboundary is the alternating sum over i = 0..n.  A summand only
reaches pairs within one key class of :func:`ybrack.indexing.position_data`,
each at most once.  A class lists its tuples in source order, so the summand
scatters the whole input grid into each class, 1/q of the output pairs, with
no gather, in cache-sized chunks of classes.  Over F_p the input is reduced
first; d_i writes its first summand and subtracts the second, adding p back
where that goes negative, and d reduces its grid once, in place.  Over Q a
sum that could leave int64 raises ``OverflowError``.  The matrix of d^n is
the same incidence as coordinates.  The rack complex is its diagonal: it
walks the same key classes at positions 1..n, slot s reading entry s.

Coefficients: a prime field reduces entries mod p; rationals are handled
with integer representatives (the complex maps are additive with unit
coefficients, so integer cochains span the rational theory and no
denominators ever arise outside of rank computations, whose RREF over Q
:mod:`ybrack.linalg` reads off a fraction-free elimination over Z).
``Cochain``, ``RackCochain`` and ``chains.Chain`` share one frozen base
that checks a field ring (else :class:`CoefficientError`), an int64 array
and its shape once; tuples and entries are checked where they are read.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .indexing import (decode_tuple, encode_tuple, pair_mask, position_data,
                       tuple_coordinates)
from .linalg import ExactMatrix
from .racks import RackTable, is_rack_homomorphism
from .rings import INT64_MAX, PrimeField, Rationals, Ring, ring_spec

DEGREE_CAP = 3          # cochain degrees supported as a target (d^2 needs one more)
MATRIX_ENTRY_CAP = 10**8
CHUNK_PAIRS = 1 << 16   # output pairs per chunk of a coboundary summand


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
    """Reduce an int64 array mod p in place and return it; over Q return it as is.

    numpy's int64 ``%`` is several times slower per entry than floor division
    by a scalar, so large arrays take x - p*floor(x/p), exact for
    |x| < 2^63 - p, and small ones, where call overhead dominates, one ``%``.
    Large arrays go in slices of about ``CHUNK_PAIRS`` entries along the first
    axis, each a view for any memory layout, so no full-size temporary is made.
    """
    mod = _modulus(ring)
    if mod and values.size < 1024:
        np.remainder(values, mod, out=values)
    elif mod:
        step = max(CHUNK_PAIRS * len(values) // values.size, 1)
        for lo in range(0, len(values), step):
            block = values[lo:lo + step]
            block -= block // mod * mod
    return values


def _check_range(ring: Ring, terms: int, *grids: np.ndarray) -> None:
    """Refuse sums of ``terms`` entries of ``grids`` that could leave int64.

    Over F_p the entries are residues, so p - 1 bounds them and nothing is
    read; over Q it costs one max and one min per grid.
    """
    mod = _modulus(ring)
    big = mod - 1 if mod else max(max(int(g.max()), -int(g.min())) for g in grids)
    if big * terms > INT64_MAX:
        raise OverflowError(f"a sum of {terms} entries of size up to {big} can leave "
                            f"int64: it needs {terms} * {big} <= {INT64_MAX}")


def _summable(values: np.ndarray, ring: Ring, terms: int) -> np.ndarray:
    """The entries, ready to be summed ``terms`` at a time: a reduced copy
    over F_p, the range-checked values themselves over Q."""
    if _modulus(ring):
        values = _reduce(values.copy(), ring)
    _check_range(ring, terms, values)
    return values


def _tuple_code(rack: RackTable, degree: int, tup) -> int:
    """The code of a ``degree``-tuple over ``rack``; any other tuple is refused."""
    if len(tup) != degree or not all(0 <= x < rack.size for x in tup):
        raise ValueError(f"{tup} is not a {degree}-tuple of elements 0..{rack.size - 1}")
    return encode_tuple(rack.size, tup)


def _integer(value) -> int:
    """The integer a coefficient stands for; floats and non-integral fractions are refused."""
    if isinstance(value, numbers.Rational) and value.denominator == 1:
        return int(value)
    raise ValueError(f"coefficient {value!r} is not an exact integer")


@dataclass(frozen=True, eq=False)
class _CoefficientArray:
    """int64 coefficients with ``axes`` axes of length q^degree over a field.

    Two arrays are equal when they have the same class, rack, degree and
    ring and equal values.  They are not hashable: ``values`` is mutable.
    """

    rack: RackTable
    degree: int
    ring: Ring
    values: np.ndarray

    axes = 2
    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.rack, self.degree, self.ring) == (other.rack, other.degree, other.ring)
                and np.array_equal(self.values, other.values))

    def __post_init__(self):
        _modulus(self.ring)  # refuses coefficient rings that are not fields
        if not isinstance(self.values, np.ndarray) or self.values.dtype != np.int64:
            raise TypeError(f"values must be an int64 array, "
                            f"got {getattr(self.values, 'dtype', type(self.values))}")
        expected = (self.rack.size**self.degree,) * self.axes
        if self.values.shape != expected:
            raise ValueError(f"values have shape {self.values.shape}, expected {expected}")

    def entry(self, *tuples):
        if len(tuples) != self.axes:
            raise TypeError(f"an entry is read at {self.axes} tuples, got {len(tuples)}")
        return self.values[tuple(_tuple_code(self.rack, self.degree, t) for t in tuples)]

    def is_zero(self) -> bool:
        return not np.any(self.values)


class Cochain(_CoefficientArray):
    """An exact matrix-valued cochain f[xcode, ycode]."""

    def is_diagonal(self) -> bool:
        return self._zero_off("diagonal")

    def is_quasidiagonal(self) -> bool:
        return self._zero_off("quasidiagonal")

    def _zero_off(self, mode: str) -> bool:
        return not np.any(self.values * ~pair_mask(self.rack, self.degree, mode))

    def as_operator_matrix(self):
        """Matrix with column = input tuple (transposed values)."""
        return np.ascontiguousarray(self.values.T)


def zero_cochain(rack: RackTable, degree: int, ring: Ring) -> Cochain:
    side = rack.size**degree
    return Cochain(rack, degree, ring, np.zeros((side, side), dtype=np.int64))


def cochain_from_entries(rack: RackTable, degree: int, ring: Ring, entries) -> Cochain:
    """Build from {(x-tuple, y-tuple): value} or a dense integer array."""
    if isinstance(entries, np.ndarray):  # a safe cast refuses floats and uint64
        return Cochain(rack, degree, ring, _reduce(entries.astype(np.int64, casting="safe"), ring))
    values = zero_cochain(rack, degree, ring).values
    for (xs, ys), v in entries.items():
        values[_tuple_code(rack, degree, xs), _tuple_code(rack, degree, ys)] = _integer(v)
    return Cochain(rack, degree, ring, _reduce(values, ring))


def add(f: Cochain, g: Cochain) -> Cochain:
    _check_range(f.ring, 2, f.values, g.values)
    return Cochain(f.rack, f.degree, f.ring, _reduce(f.values + g.values, f.ring))


def sub(f: Cochain, g: Cochain) -> Cochain:
    _check_range(f.ring, 2, f.values, g.values)
    return Cochain(f.rack, f.degree, f.ring, _reduce(f.values - g.values, f.ring))


def scale(k: int, f: Cochain) -> Cochain:
    _check_range(f.ring, abs(k), f.values)
    return Cochain(f.rack, f.degree, f.ring, _reduce(k * f.values, f.ring))


def identity_cochain(rack: RackTable, degree: int, ring: Ring) -> Cochain:
    side = rack.size**degree
    return Cochain(rack, degree, ring, np.eye(side, dtype=np.int64))


# -- coboundary ----------------------------------------------------------------

def _pair_codes(codes: np.ndarray, side: int) -> np.ndarray:
    """Codes x * side + y of every pair (x, y) within each last-axis group."""
    return codes[..., :, None] * side + codes[..., None, :]


def _summands(rack: RackTable, length: int, i: int):
    """Yield (sign, rows) for the two summands of the i-th partial coboundary
    into ``length``-tuples: input pair (s, t) reaches output pair rows[c, s, t]
    in key class c.  The 2q classes (the drop summand's, then the conj
    summand's) go in chunks of about ``CHUNK_PAIRS`` pairs, so the whole drop
    summand comes first, and small degrees take one chunk."""
    q = rack.size
    members = position_data(rack, length, i).reshape(2 * q, -1)
    side_in = members.shape[1]
    per = max(CHUNK_PAIRS // side_in**2, 1)
    for lo in range(0, 2 * q, per):
        rows = _pair_codes(members[lo:lo + per], side_in * q)
        cut = max(q - lo, 0)  # classes below q are the drop summand's
        if cut:
            yield 1, rows[:cut]
        if lo + per > q:
            yield -1, rows[cut:]


def partial_coboundary(f: Cochain, i: int) -> Cochain:
    if not 0 <= i <= f.degree:
        raise IndexError(f"partial coboundary index {i} outside 0..{f.degree}")
    mod = _modulus(f.ring)
    grid = _summable(f.values, f.ring, 2)
    side = f.rack.size ** (f.degree + 1)
    out = np.zeros(side * side, dtype=np.int64)
    for sign, rows in _summands(f.rack, f.degree + 1, i):
        if sign > 0:
            out[rows] = grid
        elif mod:  # a - b mod p is the smaller of a - b and a - b + p, read unsigned
            diff = out[rows].view(np.uint64)
            diff -= grid.view(np.uint64)
            np.minimum(diff, diff + mod, out=diff)
            out[rows] = diff.view(np.int64)
        else:
            out[rows] -= grid
    return Cochain(f.rack, f.degree + 1, f.ring, out.reshape(side, side))


def coboundary(f: Cochain) -> Cochain:
    grid = _summable(f.values, f.ring, 2 * (f.degree + 1))
    side = f.rack.size ** (f.degree + 1)
    out = np.zeros(side * side, dtype=np.int64)
    for i in range(f.degree + 1):
        for sign, rows in _summands(f.rack, f.degree + 1, i):
            if sign * (-1) ** i > 0:
                out[rows] += grid
            else:
                out[rows] -= grid
    return Cochain(f.rack, f.degree + 1, f.ring, _reduce(out.reshape(side, side), f.ring))


def coboundary_matrix(rack: RackTable, ring: Ring, degree: int,
                      subcomplex: str = "full") -> ExactMatrix:
    """Sparse matrix of d^degree in the pair-code basis.

    Rows are indexed by q^(2(degree+1)) output pairs, columns by q^(2 degree)
    input pairs; each row has at most 2(degree+1) nonzero entries.  A
    ``subcomplex`` "diagonal" or "quasidiagonal" restricts rows and columns
    to its :func:`pair_basis` before the matrix is built.  More than
    ``MATRIX_ENTRY_CAP`` output pairs are refused.
    """
    _modulus(ring)  # reject truncated coefficient rings early
    q = rack.size
    out_dim = q ** (2 * (degree + 1))
    if out_dim > MATRIX_ENTRY_CAP:
        raise SizeGuardError(out_dim, MATRIX_ENTRY_CAP)
    in_dim = q ** (2 * degree)
    members = [position_data(rack, degree + 1, i) for i in range(degree + 1)]
    rows = _pair_codes(np.stack(members), q ** (degree + 1))
    cols = np.tile(np.arange(in_dim), rows.size // in_dim)  # slot pairs are input pairs
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
    grid = _reduce(f.values.copy(), f.ring)
    return [f.ring.from_int(int(v)) for v in grid.reshape(-1)]


def vector_to_cochain(rack: RackTable, degree: int, ring: Ring, vec) -> Cochain:
    """The inverse of :func:`cochain_to_vector`; a vector of another length is refused."""
    side = rack.size**degree
    if len(vec) != side * side:
        raise ValueError(f"a degree-{degree} cochain has {side * side} entries, got {len(vec)}")
    grid = np.array([_integer(v) for v in vec], dtype=np.int64).reshape(side, side)
    return Cochain(rack, degree, ring, _reduce(grid, ring))


# -- subcomplexes ----------------------------------------------------------------

def pair_basis(rack: RackTable, degree: int, mode: str) -> list[int]:
    """Pair codes spanning the diagonal or quasi-diagonal subcomplex, sorted."""
    return np.flatnonzero(pair_mask(rack, degree, mode)).tolist()


def project_diagonal(f: Cochain) -> Cochain:
    mask = pair_mask(f.rack, f.degree, "diagonal")
    return Cochain(f.rack, f.degree, f.ring, f.values * mask)


def project_quasidiagonal(f: Cochain) -> Cochain:
    mask = pair_mask(f.rack, f.degree, "quasidiagonal")
    return Cochain(f.rack, f.degree, f.ring, f.values * mask)


def cohomology_dim(rack: RackTable, ring: Ring, degree: int,
                   subcomplex: str = "full") -> int:
    """dim ker d^degree - rank d^(degree-1), all ranks exact.

    ``subcomplex`` is "full", "diagonal" or "quasidiagonal"; the latter two
    restrict both coboundary matrices to the corresponding pair basis (the
    subcomplexes are closed under d, so this is the subcomplex cohomology).
    Degrees above ``DEGREE_CAP`` are refused.
    """
    if degree < 2:
        raise ValueError("cohomology needs degree >= 2 (uses d^(n-1) and d^n)")
    if degree > DEGREE_CAP:
        raise ValueError(f"degree {degree} above the supported cap {DEGREE_CAP}")
    d_low = coboundary_matrix(rack, ring, degree - 1, subcomplex)
    d_high = coboundary_matrix(rack, ring, degree, subcomplex)
    kernel_dim = d_high.cols - linalg.rank(d_high)
    return kernel_dim - linalg.rank(d_low)


# -- rack cochain complex ---------------------------------------------------------

class RackCochain(_CoefficientArray):
    """A map Q^degree -> coefficients, stored as values[tuplecode]."""

    axes = 1


def _rack_summands(rack: RackTable, length: int):
    """Yield (sign, classes) for the drop and conj summands of the rack
    coboundary into ``length``-tuples, slot s of each class reading input s:
    the diagonal slots of the Yang-Baxter summands at positions 1..length-1
    (at position 0 the two summands cancel on the diagonal)."""
    for i in range(1, length):
        classes = position_data(rack, length, i)
        yield (-1) ** i, classes[0]
        yield -(-1) ** i, classes[1]


def rack_coboundary(lam: RackCochain) -> RackCochain:
    """Alternating sum over i = 1..n of lam(drop i) - lam(conjugate prefix, drop i)."""
    n = lam.degree
    values = _summable(lam.values, lam.ring, 2 * n)
    total = np.zeros(lam.rack.size ** (n + 1), dtype=np.int64)
    for sign, classes in _rack_summands(lam.rack, n + 1):
        total[classes] += sign * values
    return RackCochain(lam.rack, n + 1, lam.ring, _reduce(total, lam.ring))


def rack_coboundary_matrix(rack: RackTable, ring: Ring, degree: int) -> ExactMatrix:
    """Sparse matrix of the rack coboundary on degree-n cochains: row
    classes[k, s] meets column s once per summand, with the summand's sign."""
    q = rack.size
    summands = list(_rack_summands(rack, degree + 1))
    rows = np.array([classes for _, classes in summands], dtype=np.int64).reshape(-1)
    cols = np.tile(np.arange(q**degree), 2 * degree * q)
    signs = np.repeat([sign for sign, _ in summands], q ** (degree + 1))
    return ExactMatrix.from_coo(ring, q ** (degree + 1), q**degree, rows, cols, signs)


def rack_cohomology_dim(rack: RackTable, ring: Ring, degree: int) -> int:
    if degree < 2:
        raise ValueError("rack cohomology dimension needs degree >= 2")
    _modulus(ring)
    d_low = rack_coboundary_matrix(rack, ring, degree - 1)
    d_high = rack_coboundary_matrix(rack, ring, degree)
    return (d_high.cols - linalg.rank(d_high)) - linalg.rank(d_low)


def diagonal_part(f: Cochain) -> RackCochain:
    """The identification of a diagonal cochain with a rack cochain."""
    return RackCochain(f.rack, f.degree, f.ring, f.values.diagonal().copy())


def from_rack_cochain(lam: RackCochain) -> Cochain:
    return Cochain(lam.rack, lam.degree, lam.ring, np.diag(lam.values))


# -- entropic cochains and equivariance --------------------------------------------

def is_entropic(f: Cochain) -> bool:
    """True iff every partial coboundary d_i f, i = 0..degree, vanishes."""
    return all(partial_coboundary(f, i).is_zero() for i in range(f.degree + 1))


def is_fully_equivariant(f: Cochain) -> bool:
    """Invariance under the inner group acting coordinatewise and independently."""
    n = f.degree
    q = f.rack.size
    grid = f.values
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
    grid = f.values[np.ix_(target_codes, target_codes)]
    return Cochain(source, n, f.ring, grid.copy())


# -- dump format ---------------------------------------------------------------------

def dump_cochain(f: Cochain) -> str:
    """A header line, then one line per nonzero entry: its x-tuple, y-tuple
    and value.  It reads only ``rack``, ``degree``, ``ring`` and ``values``,
    so :func:`ybrack.chains.dump_chain` shares it."""
    lines = [f"degree {f.degree} ring {ring_spec(f.ring)}"]
    q = f.rack.size
    for xi, yi in zip(*np.nonzero(f.values)):
        xs = decode_tuple(q, int(xi), f.degree)
        ys = decode_tuple(q, int(yi), f.degree)
        coords = " ".join(map(str, xs + ys))
        lines.append(f"{coords} {f.ring.scalar_str(f.ring.from_int(int(f.values[xi, yi])))}")
    return "\n".join(lines) + "\n"
