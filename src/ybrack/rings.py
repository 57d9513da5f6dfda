"""Exact coefficient rings: prime fields, rationals, and truncated local rings.

Every ring in this module is exact.  The one floating-point step is the
residue product ``_convolve``, which multiplies in float64 only while every
partial sum is an integer below 2^53 (its docstring has the argument).
Scalars are plain Python values (``int``, ``fractions.Fraction``, or a tuple
of coefficients), and the ring object carries the arithmetic.  Matrices over
a ring use a ring-specific ndarray layout so bulk operations stay vectorised:

* ``PrimeField(p)``     -- int64 array, entries reduced into [0, p)
* ``Rationals()``       -- object array of ``Fraction``
* ``SeriesRing(p, N)``  -- the truncation F_p[h]/(h^N); int64 array of shape
                           (N, rows, cols), slice k holding the order-k
                           coefficient matrix
* ``PadicRing(p, N)``   -- the truncation Z/p^N; int64 array reduced mod p^N

Moduli must fit in int64, and the int64 matrix kernels refuse (``ValueError``)
any product whose sums of residue products could leave int64: ``mat_mul``
needs inner * (m - 1)^2 < 2^63 for the modulus m, times N for F_p[h]/(h^N).

A ring's identity is its spec, the text ``parse_ring`` reads ("F5", "Q",
"F3[h]/h^3", "Z/3^2"): ``repr``, equality and hashing all derive from it.
The two truncated rings share a uniform local-ring contract (valuation,
residue projection onto F_p, canonical digit lift) so that deformation code
can be written once for both.  All values are immutable and all operations
are pure functions; everything here is safe to share between threads.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

import numpy as np


class NotAUnitError(ArithmeticError):
    """Raised when inverting a matrix that is not a unit; carries the matrix."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"not a unit: {element!r}")


class NotAFieldError(TypeError):
    """Raised when a field-only operation is applied over a non-field ring."""


INT64_MAX = 2**63 - 1


def _check_products(modulus: int, terms: int) -> None:
    """Refuse an int64 kernel that sums ``terms`` products of residues mod ``modulus``."""
    if terms * (modulus - 1) ** 2 > INT64_MAX:
        raise ValueError(f"{terms} products of residues mod {modulus} can leave int64: "
                         f"needs {terms} * ({modulus} - 1)^2 < 2^63")


def _convolve(a, b, modulus: int):
    """Exact product of two coefficient stacks mod ``modulus`` = m: for operands
    of shape (N, rows, inner) and (N, inner, cols) holding residues in [0, m),
    coefficient j of the result is sum_{i<=j} a_i b_(j-i), reduced.

    Coefficient j is one matmul: [a_j | ... | a_0] times [b_0; ...; b_j], the
    last (j+1) inner columns of the reversed wide stack and the first (j+1)
    inner rows of the tall one.  Each term is a product of residues, in
    [0, (m - 1)^2], so every partial sum in any summation order is an integer
    in [0, N inner (m - 1)^2].  Below 2^53 all of these are float64 values, so
    every multiply, add or fused multiply-add BLAS performs is exact and the
    product runs in float64; above, it runs in int64 under ``_check_products``.
    """
    n, rows, inner = a.shape
    cols, terms = b.shape[2], n * inner
    if terms * (modulus - 1) ** 2 < 2**53:
        dtype = np.float64
    else:
        _check_products(modulus, terms)
        dtype = np.int64
    wide = a[::-1].swapaxes(0, 1).reshape(rows, terms).astype(dtype, copy=False)
    tall = b.reshape(terms, cols).astype(dtype, copy=False)
    out = np.empty((n, rows, cols), dtype)
    for j in range(n):
        np.matmul(wide[:, (n - 1 - j) * inner:], tall[:(j + 1) * inner], out=out[j])
    out = out.astype(np.int64, copy=False)
    out %= modulus
    return out


def _rref(a: np.ndarray, step):
    """The Gauss-Jordan loop of both eliminations; returns (the grid, pivot
    columns).  Per column c, the first row at or below the next pivot row r
    that is nonzero in c (row order) is swapped into row r, and
    ``step(a, r, c, others)`` clears c from the other nonzero rows and
    returns the grid, which it may replace."""
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hit = a[:, c].nonzero()[0]
        k = hit.searchsorted(r)
        if k == hit.size:
            continue
        if hit[k] != r:
            a[[r, hit[k]]] = a[[hit[k], r]]
        a = step(a, r, c, hit[hit != hit[k]])
        pivots.append(c)
    return a, pivots


def _rref_mod_p(a: np.ndarray, p: int):
    """RREF mod p of an int64 grid of residues, which it reduces in place
    (the caller passes a grid it owns); returns (the grid, pivot columns).

    This is one of the two eliminations: over F_p ``linalg`` reduces every
    block with it and ``PrimeField.mat_inv`` reads inverses off it, while
    over Q both ``linalg`` and ``Rationals.mat_inv`` read the integer rows of
    :func:`_rref_over_z`.  Every value it forms lies within (p - 1)^2 +
    (p - 1), so it is exact for p up to 3037000493.  A pivot row only
    changes the other rows in the columns where it is nonzero, so each step
    updates just those cells.
    """
    def step(a, r, c, others):
        support = c + a[r, c:].nonzero()[0]
        prow = a[r, support] * pow(int(a[r, c]), -1, p) % p
        a[r, support] = prow
        if others.size:
            others = others[:, None]
            a[others, support] = (a[others, support] - a[others, c] * prow) % p
        return a
    return _rref(a, step)


def _scaled_rows(row: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rational entries (an object array) as integers, each row scaled by the lcm of
    its denominators (``row`` gives each value's row): int64 when every value fits,
    else Python ints.  Each object is read once; ``from_coo`` shares one per value."""
    ids = np.fromiter(map(id, values), dtype=np.uint64, count=values.size)
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    nums, dens = (np.array([getattr(v, part) for v in values[first]], dtype=object)
                  for part in ("numerator", "denominator"))
    if (dens != 1).any():  # true fractions: scale entry by entry
        nums, dens, index = nums[index], dens[index], slice(None)
        lcm: dict[int, int] = {}
        for i, d in zip(row.tolist(), dens.tolist()):
            lcm[i] = math.lcm(lcm.get(i, 1), d)
        nums = nums * np.array([lcm[i] for i in row.tolist()], dtype=object) // dens
    try:
        return nums.astype(np.int64)[index]
    except OverflowError:
        return nums[index]


def _magnitude(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _rref_over_z(a: np.ndarray):
    """Fraction-free Gauss-Jordan of an integer grid (int64 or Python ints),
    which it reduces in place; returns (the grid, pivot columns).

    It runs the loop and pivot rule of :func:`_rref`, as :func:`_rref_mod_p`
    does.  Row operations over Z keep the row space over Q, so row k divided by
    its pivot entry, which is made positive, is row k of the RREF over Q.  A
    pivot of 1 clears its column from the other rows within its own support;
    any other pivot v turns each such row into row * v - f * (pivot row) and
    divides it by its content, the gcd of its entries.  A step runs in int64
    only when its operands bound every value it forms below 2^63; otherwise
    the grid becomes Python ints from that step on.
    """
    def step(a, r, c, others):
        pv = int(a[r, c])
        span = c + a[r, c:].nonzero()[0] if abs(pv) == 1 else np.arange(a.shape[1])
        others = others[:, None]
        prow, sub = a[r, span], a[others, span]
        bound = _magnitude(prow)
        if a.dtype != object and max(bound, _magnitude(sub) * (abs(pv) + bound)) > INT64_MAX:
            a = a.astype(object)
            prow, sub = a[r, span], a[others, span]
        if pv < 0:
            prow = a[r, span] = -prow
            pv = -pv
        if pv == 1:
            a[others, span] = sub - a[others, c] * prow
        elif others.size:
            new = sub * pv - a[others, c] * prow
            a[others, span] = new // np.maximum(np.gcd.reduce(new, axis=1, keepdims=True), 1)
        return a
    return _rref(a, step)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases: exact for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    return all(pow(a, (n - 1) >> s, n) == 1
               or any(pow(a, (n - 1) >> r, n) == n - 1 for r in range(1, s + 1)) for a in bases)


def _as_int_grid(entries):
    arr = np.asarray(entries, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a two dimensional entry grid")
    return arr


class Ring:
    """Shared behaviour; see the concrete subclasses for the scalar formats.
    Each ring sets ``spec`` once, and its identity derives from it."""

    is_field = False
    is_truncated = False
    spec: str

    def __repr__(self):
        return self.spec

    def __eq__(self, other):
        return isinstance(other, Ring) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def mat_eq(self, a, b) -> bool:
        return self.first_difference(a, b) is None


class _IntegersMod(Ring):
    """Z/m for an int64 modulus m; scalars are ints in [0, m), matrices int64
    arrays of residues."""

    modulus: int

    def from_int(self, k):
        return k % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_zero(self, a):
        return a % self.modulus == 0

    def scalar_str(self, a):
        return str(a % self.modulus)

    def scalar_parse(self, text):
        return int(text) % self.modulus

    def zeros(self, rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n):
        return np.eye(n, dtype=np.int64)

    def from_int_matrix(self, entries):
        """Embed an integer matrix (e.g. a permutation matrix) into the ring."""
        return _as_int_grid(entries) % self.modulus

    def shape(self, mat):
        return mat.shape

    def mat_add(self, a, b):
        return (a + b) % self.modulus

    def mat_sub(self, a, b):
        return (a - b) % self.modulus

    def mat_mul(self, a, b):
        return _convolve(a[None], b[None], self.modulus)[0]

    def mat_kron(self, a, b):
        _check_products(self.modulus, 1)
        return np.kron(a, b) % self.modulus

    def first_difference(self, a, b):
        """First entry (row-major) where two matrices differ, else None."""
        diff = (a - b) % self.modulus
        hits = np.argwhere(diff != 0)
        if hits.size == 0:
            return None
        i, j = map(int, hits[0])
        return i, j

    def mat_entry(self, mat, i, j):
        return int(mat[i, j])

    def mat_set_entry(self, mat, i, j, value):
        mat[i, j] = value % self.modulus


class PrimeField(_IntegersMod):
    """F_p for a prime p; scalars are ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p > INT64_MAX:
            raise ValueError(f"modulus {p} does not fit in int64 (at most {INT64_MAX})")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = self.modulus = p
        self.spec = f"F{p}"

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def mat_inv(self, mat):
        """The right block of the RREF of [A | I], when its pivots are 0..n-1."""
        _check_products(self.p, 1)
        n = mat.shape[0]
        aug, pivots = _rref_mod_p(np.concatenate([mat % self.p, self.eye(n)], axis=1), self.p)
        if pivots != list(range(n)):
            raise NotAUnitError(mat)
        return aug[:, n:]


class Rationals(Ring):
    """The field Q; scalars are ``fractions.Fraction`` (always reduced)."""

    is_field = True
    spec = "Q"

    @staticmethod
    def _coerce(value) -> Fraction:
        # numpy integer scalars must not leak into Fraction internals, where
        # they would silently overflow; floats are rejected outright
        if isinstance(value, Fraction):
            return value
        return Fraction(operator.index(value))

    def from_int(self, k):
        return self._coerce(k)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in Q")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def scalar_str(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def scalar_parse(self, text):
        return Fraction(text)

    def zeros(self, rows, cols):
        return self.from_int_matrix(np.zeros((rows, cols), dtype=np.int64))

    def eye(self, n):
        return self.from_int_matrix(np.eye(n, dtype=np.int64))

    def from_int_matrix(self, entries):
        return np.frompyfunc(Fraction, 1, 1)(_as_int_grid(entries).astype(object))

    def shape(self, mat):
        return mat.shape

    def mat_add(self, a, b):
        return a + b

    def mat_sub(self, a, b):
        return a - b

    def mat_mul(self, a, b):
        # each factor over one common denominator, so the sums run on Python ints
        dens = [math.lcm(*(v.denominator for v in m.flat)) for m in (a, b)]
        a, b = (np.array([v.numerator * (d // v.denominator) for v in m.flat],
                         dtype=object).reshape(m.shape) for m, d in zip((a, b), dens))
        return np.frompyfunc(lambda v: Fraction(v, dens[0] * dens[1]), 1, 1)(np.dot(a, b))

    def mat_kron(self, a, b):
        return np.kron(a, b)

    def first_difference(self, a, b):
        hits = np.argwhere(a != b)
        return tuple(map(int, hits[0])) if hits.size else None

    def mat_entry(self, mat, i, j):
        return mat[i, j]

    def mat_set_entry(self, mat, i, j, value):
        mat[i, j] = self._coerce(value)

    def mat_inv(self, mat):
        """The right block of the RREF of [A | I], when its pivots are 0..n-1:
        ``_rref_over_z`` reduces [A | I] with each row scaled to integers, and
        a reduced row over its pivot entry is the RREF row."""
        n = mat.shape[0]
        aug = np.concatenate([mat, self.eye(n)], axis=1)
        grid = _scaled_rows(np.repeat(np.arange(n), 2 * n), aug.reshape(-1))
        reduced, pivots = _rref_over_z(grid.reshape(n, 2 * n))
        if pivots != list(range(n)):
            raise NotAUnitError(mat)
        return np.frompyfunc(Fraction, 2, 1)(reduced[:, n:].astype(object),
                                              reduced.diagonal().astype(object)[:, None])


class _TruncatedRing(Ring):
    """Shared contract of the two truncated local rings.

    Both rings are complete quotients with maximal ideal m and residue field
    F_p; the quotients m^k / m^{k+1} are one dimensional over F_p, and
    ``digit_matrix`` / ``lift_digit_matrix`` realise that identification in
    both directions.  ``valuation`` gives the zero element the truncation order.
    """

    is_truncated = True
    p: int
    order: int  # nilpotency order N of the maximal ideal

    def __init__(self, p: int, order: int):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self._residue_field = PrimeField(p)
        self.p = p
        self.order = order

    def residue_field(self) -> PrimeField:
        return self._residue_field

    def mat_inv(self, mat):
        # Newton iteration X <- X(2I - AX) doubles the correct order each
        # step, starting from the inverse of the residue matrix.  A gauge
        # transform's residue is I, its own inverse, so it skips elimination.
        res = self.residue_matrix(mat)
        n = self.shape(mat)[0]
        if np.array_equal(res, np.eye(n, dtype=np.int64)):
            x = self.eye(n)
        else:
            x = self.from_int_matrix(self.residue_field().mat_inv(res))
        two_eye = self.mat_add(self.eye(n), self.eye(n))
        steps = max(1, (self.order - 1).bit_length())
        for _ in range(steps):
            x = self.mat_mul(x, self.mat_sub(two_eye, self.mat_mul(mat, x)))
        return x


class SeriesRing(_TruncatedRing):
    """F_p[h]/(h^N); scalars are tuples (c_0, ..., c_{N-1}) of residues."""

    def __init__(self, p: int, order: int):
        super().__init__(p, order)
        self.spec = f"F{p}[h]/h^{order}"

    def from_int(self, k):
        return (k % self.p,) + (0,) * (self.order - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        out = [0] * self.order
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j in range(self.order - i):
                out[i + j] = (out[i + j] + x * b[j]) % self.p
        return tuple(out)

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    def valuation(self, a):
        for k, x in enumerate(a):
            if x % self.p != 0:
                return k
        return self.order

    def lift_digit(self, r, k):
        out = [0] * self.order
        out[k] = r % self.p
        return tuple(out)

    def scalar_str(self, a):
        return ",".join(str(x % self.p) for x in a)

    def scalar_parse(self, text):
        parts = [int(x) % self.p for x in text.split(",")]
        if len(parts) != self.order:
            raise ValueError(f"expected {self.order} coefficients, got {len(parts)}")
        return tuple(parts)

    def zeros(self, rows, cols):
        return np.zeros((self.order, rows, cols), dtype=np.int64)

    def eye(self, n):
        mat = self.zeros(n, n)
        mat[0] = np.eye(n, dtype=np.int64)
        return mat

    def from_int_matrix(self, entries):
        mat = self.zeros(*_as_int_grid(entries).shape)
        mat[0] = _as_int_grid(entries) % self.p
        return mat

    def shape(self, mat):
        return mat.shape[1], mat.shape[2]

    def mat_add(self, a, b):
        return (a + b) % self.p

    def mat_sub(self, a, b):
        return (a - b) % self.p

    def mat_mul(self, a, b):
        return _convolve(a, b, self.p)

    def mat_kron(self, a, b):
        # the coefficient products of every entry pair: an inner-1 product
        (n, ra, ca), (_, rb, cb) = a.shape, b.shape
        outer = _convolve(a.reshape(n, ra * ca, 1), b.reshape(n, 1, rb * cb), self.p)
        return outer.reshape(n, ra, ca, rb, cb).swapaxes(2, 3).reshape(n, ra * rb, ca * cb)

    def first_difference(self, a, b):
        diff = (a - b) % self.p
        hits = np.argwhere(np.any(diff != 0, axis=0))
        if hits.size == 0:
            return None
        i, j = map(int, hits[0])
        return i, j

    def mat_entry(self, mat, i, j):
        return tuple(int(v) for v in mat[:, i, j])

    def mat_set_entry(self, mat, i, j, value):
        mat[:, i, j] = np.asarray(value, dtype=np.int64) % self.p

    def residue_matrix(self, mat):
        return mat[0] % self.p

    def digit_matrix(self, mat, k):
        return mat[k] % self.p

    def lift_digit_matrix(self, grid, k):
        mat = self.zeros(*_as_int_grid(grid).shape)
        mat[k] = _as_int_grid(grid) % self.p
        return mat

    def min_valuation(self, mat):
        for k in range(self.order):
            if np.any(mat[k] % self.p):
                return k
        return self.order


class PadicRing(_TruncatedRing, _IntegersMod):
    """Z/p^N viewed as a truncation of the p-adic integers; scalars are ints."""

    def __init__(self, p: int, order: int):
        super().__init__(p, order)
        if order >= 63 or p**order > INT64_MAX:  # p >= 2, so order >= 63 never fits
            raise ValueError(f"modulus {p}^{order} does not fit in int64 (at most {INT64_MAX})")
        self.modulus = p**order
        self.spec = f"Z/{p}^{order}"

    def valuation(self, a):
        a %= self.modulus
        if a == 0:
            return self.order
        val = 0
        while a % self.p == 0:
            a //= self.p
            val += 1
        return val

    def lift_digit(self, r, k):
        return (r % self.p) * self.p**k % self.modulus

    def residue_matrix(self, mat):
        return mat % self.p

    def digit_matrix(self, mat, k):
        return (mat % self.modulus) // self.p**k % self.p

    def lift_digit_matrix(self, grid, k):
        return (_as_int_grid(grid) % self.p) * self.p**k % self.modulus

    def min_valuation(self, mat):
        reduced = mat % self.modulus
        if not np.any(reduced):
            return self.order
        val = 0
        while not np.any(reduced % self.p):
            reduced //= self.p
            val += 1
        return val


_RING_GRAMMAR = [
    (re.compile(r"^Q$"), lambda m: Rationals()),
    (re.compile(r"^F(\d+)\[h\]/h\^(\d+)$"), lambda m: SeriesRing(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^F(\d+)$"), lambda m: PrimeField(int(m.group(1)))),
    (re.compile(r"^Z/(\d+)\^(\d+)$"), lambda m: PadicRing(int(m.group(1)), int(m.group(2)))),
]


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec: "Q" | "F<p>" | "F<p>[h]/h^<N>" | "Z/<p>^<N>"."""
    spec = spec.strip()
    for pattern, build in _RING_GRAMMAR:
        m = pattern.match(spec)
        if m:
            return build(m)
    raise ValueError(f"cannot parse ring spec {spec!r}")


def ring_spec(ring: Ring) -> str:
    """Inverse of parse_ring: the spec that is the ring's identity."""
    return ring.spec
