"""Yang-Baxter operators as exact matrices on a tensor square.

The matrix convention throughout: column index = input basis tuple, row
index = output basis tuple, both ordered lexicographically over pairs.  For
a rack Q the operator sends (x1, x2) to (x2, x1 * x2), so its matrix is the
permutation matrix with a one in row code(x2, x1 * x2) of column
code(x1, x2).  Matrices act on tensor powers strand by strand, one ring
product each, so the braid check and gauge conjugation build no Kronecker lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .racks import RackTable
from .rings import Ring, ring_spec, parse_ring
from . import linalg


class InvalidOperatorError(ValueError):
    pass


@dataclass(frozen=True)
class YBEVerdict:
    """Outcome of a braid-relation check.

    On failure ``witness`` holds the first differing entry (row, col) of the
    two composite matrices together with both entry values; over a truncated
    ring ``failure_order`` is the lowest k such that the relation breaks
    modulo the (k+1)-st ideal power.
    """

    holds: bool
    witness: tuple | None = None
    failure_order: int | None = None

    def __bool__(self) -> bool:
        return self.holds

    def holds_mod(self, k: int) -> bool:
        """Braid relation modulo the k-th ideal power (truncated rings)."""
        return self.holds or (self.failure_order is not None and self.failure_order >= k)


@dataclass(frozen=True)
class YBOperator:
    ring: Ring
    dim: int                 # rank of V; the matrix acts on V tensor V
    matrix: object           # ring-layout array of logical shape (dim^2, dim^2)
    rack: RackTable | None = None

    def entry(self, out_pair: tuple[int, int], in_pair: tuple[int, int]):
        code_out = out_pair[0] * self.dim + out_pair[1]
        code_in = in_pair[0] * self.dim + in_pair[1]
        return self.ring.mat_entry(self.matrix, code_out, code_in)


def _rack_grid(rack: RackTable) -> np.ndarray:
    """0/1 int64 permutation matrix of (x1, x2) -> (x2, x1 * x2)."""
    n = rack.size
    grid = np.zeros((n * n, n * n), dtype=np.int64)
    for x1 in range(n):
        for x2 in range(n):
            grid[x2 * n + rack.op(x1, x2), x1 * n + x2] = 1
    return grid


def rack_operator(rack: RackTable, ring: Ring) -> YBOperator:
    """The permutation operator (x1, x2) -> (x2, x1 * x2) of a rack."""
    matrix = ring.from_int_matrix(_rack_grid(rack))
    return YBOperator(ring=ring, dim=rack.size, matrix=matrix, rack=rack)


def operator_from_matrix(ring: Ring, dim: int, matrix,
                         rack: RackTable | None = None) -> YBOperator:
    """Wrap a matrix as an operator, checking invertibility over the ring.

    Over a truncated ring invertibility is equivalent to invertibility of
    the residue matrix, which is what gets checked.
    """
    rows, cols = ring.shape(matrix)
    if rows != dim * dim or cols != dim * dim:
        raise InvalidOperatorError(f"matrix is {rows}x{cols}, expected {dim * dim} square")
    field, grid = ring, matrix
    if ring.is_truncated:
        field, grid = ring.residue_field(), ring.residue_matrix(matrix)
    if linalg.rank(linalg.ExactMatrix.from_grid(field, grid)) != dim * dim:
        raise InvalidOperatorError("matrix is not invertible over its ring")
    return YBOperator(ring=ring, dim=dim, matrix=matrix, rack=rack)


def _act(ring: Ring, m, x, dim: int, position: int):
    """m . x for m acting on strands of dimension ``dim`` of the rows of x, the
    first being strand ``position`` (1-based); right factors act as transposes."""
    *lead, rows, cols = x.shape
    k = m.shape[-1]
    before = dim ** (position - 1)
    grouped = x.reshape(*lead, before, k, rows // before // k * cols).swapaxes(-2, -3)
    out = ring.mat_mul(m, grouped.reshape(*lead, k, -1)).reshape(grouped.shape)
    return out.swapaxes(-2, -3).reshape(x.shape)


def check_ybe(op: YBOperator) -> YBEVerdict:
    """Check the braid relation c1 c2 c1 = c2 c1 c2 on the tensor cube by three
    strand products: X = c2 c1, c1 X, and X c2 as (c^T on X^T)^T."""
    ring, c, n = op.ring, op.matrix, op.dim
    c1 = (c[..., :, None, :, None] * np.eye(n, dtype=c.dtype)[:, None, :]).reshape(
        *c.shape[:-2], n ** 3, n ** 3)  # c tensor id, by broadcasting
    x = _act(ring, c, c1, n, 2)
    lhs = _act(ring, c, x, n, 1)
    rhs = _act(ring, c.swapaxes(-1, -2), x.swapaxes(-1, -2), n, 2).swapaxes(-1, -2)
    where = ring.first_difference(lhs, rhs)
    if where is None:
        return YBEVerdict(holds=True)
    i, j = where
    witness = (i, j, ring.mat_entry(lhs, i, j), ring.mat_entry(rhs, i, j))
    order = None
    if ring.is_truncated:
        order = ring.min_valuation(ring.mat_sub(lhs, rhs))
    return YBEVerdict(holds=False, witness=witness, failure_order=order)


@dataclass(frozen=True)
class GaugeTransform:
    """An automorphism of V congruent to the identity modulo the ideal."""

    ring: Ring
    matrix: object  # logical shape (dim, dim)

    def __post_init__(self):
        ring = self.ring
        n = ring.shape(self.matrix)[0]
        if ring.is_truncated:
            residue = ring.residue_matrix(self.matrix)
            if np.any((residue - np.eye(n, dtype=np.int64)) % ring.p):
                raise InvalidOperatorError("gauge transform must be the identity mod the ideal")
        else:
            if not ring.mat_eq(self.matrix, ring.eye(n)):
                raise InvalidOperatorError(
                    "over a field the ideal is zero, so the only gauge transform is the identity")


def gauge_conjugate(op: YBOperator, alpha: GaugeTransform) -> YBOperator:
    """(alpha tensor alpha)^-1 . c . (alpha tensor alpha), exactly.

    The inverse is taken as alpha^-1 tensor alpha^-1, a dim x dim inversion.
    """
    return _conjugate(op, alpha.matrix, op.ring.mat_inv(alpha.matrix))


def _conjugate(op: YBOperator, alpha, alpha_inv) -> YBOperator:
    """(alpha_inv tensor alpha_inv) . c . (alpha tensor alpha) as four
    single-strand products: alpha^T on each strand of c^T, then alpha_inv."""
    ring, n = op.ring, op.dim
    at = alpha.swapaxes(-1, -2)
    right = _act(ring, at, _act(ring, at, op.matrix.swapaxes(-1, -2), n, 1), n, 2)
    matrix = _act(ring, alpha_inv, _act(ring, alpha_inv, right.swapaxes(-1, -2), n, 1), n, 2)
    return YBOperator(ring=ring, dim=op.dim, matrix=matrix, rack=op.rack)


def deform(base: YBOperator, term) -> YBOperator:
    """Compose a rack operator with id + term for a degree-2 deformation term.

    ``term`` is a matrix in the layout of the operator's truncated ring,
    column = input pair; every entry must have positive valuation, so the
    residue of the result is the undeformed operator.
    """
    ring = base.ring
    if not ring.is_truncated:
        raise InvalidOperatorError("deformations live over a truncated ring")
    if np.any(ring.residue_matrix(term)):
        raise InvalidOperatorError("deformation term must take values in the maximal ideal")
    deformed = ring.mat_mul(base.matrix, ring.mat_add(ring.eye(base.dim ** 2), term))
    return YBOperator(ring=ring, dim=base.dim, matrix=deformed, rack=base.rack)


def deformation_term(op: YBOperator) -> object:
    """F with c = c_Q . (id + F), for an operator carrying its rack."""
    if op.rack is None:
        raise InvalidOperatorError("operator does not carry a rack")
    ring = op.ring
    # the rack operator is a permutation matrix, so its inverse is its transpose
    base_inv = ring.from_int_matrix(_rack_grid(op.rack).T)
    composite = ring.mat_mul(base_inv, op.matrix)
    return ring.mat_sub(composite, ring.eye(op.dim ** 2))


# -- operator dump format -----------------------------------------------------

def dump_operator(op: YBOperator) -> str:
    mat = linalg.ExactMatrix.from_grid(op.ring, op.matrix)
    return ring_spec(op.ring) + "\n" + linalg.dump_matrix(mat)


def load_operator(text: str, rack: RackTable | None = None) -> YBOperator:
    head, _, rest = text.partition("\n")
    ring = parse_ring(head)
    loaded = linalg.load_matrix(rest, ring=ring)
    dim = math.isqrt(loaded.rows)
    if dim * dim != loaded.rows:
        raise InvalidOperatorError(
            f"operator matrix has {loaded.rows} rows, which is not a perfect square")
    matrix = ring.zeros(loaded.rows, loaded.cols)
    for (i, j), v in loaded.nonzero_items():
        ring.mat_set_entry(matrix, i, j, v)
    return operator_from_matrix(ring, dim, matrix, rack=rack)
