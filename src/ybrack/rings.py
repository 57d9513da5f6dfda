"""Exact coefficient rings: prime fields, rationals, and truncated local rings.

Every ring in this module is exact; there is no floating point anywhere.
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
    """Raised when inverting a non-unit; carries the element's valuation."""

    def __init__(self, element, valuation):
        self.element = element
        self.valuation = valuation
        super().__init__(f"not a unit: {element!r} (valuation {valuation})")


class NotAFieldError(TypeError):
    """Raised when a field-only operation is applied over a non-field ring."""


INT64_MAX = 2**63 - 1


def _check_products(modulus: int, terms: int) -> None:
    """Refuse an int64 kernel that sums ``terms`` products of residues mod ``modulus``."""
    if terms * (modulus - 1) ** 2 > INT64_MAX:
        raise ValueError(f"{terms} products of residues mod {modulus} can leave int64: "
                         f"needs {terms} * ({modulus} - 1)^2 < 2^63")


def _as_int_grid(entries):
    arr = np.asarray(entries, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a two dimensional entry grid")
    return arr


class Ring:
    """Common interface; see the concrete subclasses for the scalar formats."""

    is_field = False
    is_truncated = False

    # -- scalars -----------------------------------------------------------
    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def scalar_str(self, a) -> str:
        raise NotImplementedError

    def scalar_parse(self, text: str):
        raise NotImplementedError

    # -- matrices (logical shape (rows, cols), layout per subclass) --------
    def zeros(self, rows: int, cols: int):
        raise NotImplementedError

    def eye(self, n: int):
        raise NotImplementedError

    def from_int_matrix(self, entries):
        """Embed an integer matrix (e.g. a permutation matrix) into the ring."""
        raise NotImplementedError

    def shape(self, mat) -> tuple[int, int]:
        raise NotImplementedError

    def mat_add(self, a, b):
        raise NotImplementedError

    def mat_sub(self, a, b):
        raise NotImplementedError

    def mat_mul(self, a, b):
        raise NotImplementedError

    def mat_kron(self, a, b):
        raise NotImplementedError

    def mat_eq(self, a, b) -> bool:
        return self.first_difference(a, b) is None

    def first_difference(self, a, b):
        """First entry (row-major) where two matrices differ, else None."""
        raise NotImplementedError

    def mat_entry(self, mat, i: int, j: int):
        raise NotImplementedError

    def mat_set_entry(self, mat, i: int, j: int, value):
        raise NotImplementedError

    def mat_inv(self, mat):
        raise NotImplementedError

    def mat_is_zero(self, mat) -> bool:
        raise NotImplementedError

    def mat_copy(self, mat):
        return mat.copy()


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
        return _as_int_grid(entries) % self.modulus

    def shape(self, mat):
        return mat.shape

    def mat_add(self, a, b):
        return (a + b) % self.modulus

    def mat_sub(self, a, b):
        return (a - b) % self.modulus

    def mat_mul(self, a, b):
        _check_products(self.modulus, a.shape[1])
        return (a @ b) % self.modulus

    def mat_kron(self, a, b):
        _check_products(self.modulus, 1)
        return np.kron(a, b) % self.modulus

    def first_difference(self, a, b):
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

    def mat_is_zero(self, mat):
        return not np.any(mat % self.modulus)


class PrimeField(_IntegersMod):
    """F_p for a prime p; scalars are ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p > INT64_MAX:
            raise ValueError(f"modulus {p} does not fit in int64 (at most {INT64_MAX})")
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"modulus {p} is not prime")
        self.p = self.modulus = p

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def mat_inv(self, mat):
        _check_products(self.p, 1)
        n = mat.shape[0]
        aug = np.concatenate([mat % self.p, self.eye(n)], axis=1)
        for col in range(n):
            nz = np.nonzero(aug[col:, col])[0]
            if nz.size == 0:
                raise NotAUnitError(mat, None)
            piv = col + int(nz[0])
            if piv != col:
                aug[[col, piv]] = aug[[piv, col]]
            aug[col] = aug[col] * pow(int(aug[col, col]), -1, self.p) % self.p
            others = aug[:, col].copy()
            others[col] = 0
            aug = (aug - np.outer(others, aug[col])) % self.p
        return aug[:, n:]


class Rationals(Ring):
    """The field Q; scalars are ``fractions.Fraction`` (always reduced)."""

    is_field = True

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

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
        mat = np.empty((rows, cols), dtype=object)
        mat[:] = Fraction(0)
        return mat

    def eye(self, n):
        mat = self.zeros(n, n)
        for i in range(n):
            mat[i, i] = Fraction(1)
        return mat

    def from_int_matrix(self, entries):
        grid = _as_int_grid(entries)
        mat = np.empty(grid.shape, dtype=object)
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                mat[i, j] = Fraction(int(grid[i, j]))
        return mat

    def shape(self, mat):
        return mat.shape

    def mat_add(self, a, b):
        return a + b

    def mat_sub(self, a, b):
        return a - b

    def mat_mul(self, a, b):
        return np.dot(a, b)

    def mat_kron(self, a, b):
        return np.kron(a, b)

    def first_difference(self, a, b):
        rows, cols = a.shape
        for i in range(rows):
            for j in range(cols):
                if a[i, j] != b[i, j]:
                    return i, j
        return None

    def mat_entry(self, mat, i, j):
        return mat[i, j]

    def mat_set_entry(self, mat, i, j, value):
        mat[i, j] = self._coerce(value)

    def mat_inv(self, mat):
        n = mat.shape[0]
        aug = [[Fraction(mat[i, j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
               for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise NotAUnitError(mat, None)
            aug[col], aug[piv] = aug[piv], aug[col]
            scale = 1 / aug[col][col]
            aug[col] = [scale * v for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
        out = self.zeros(n, n)
        for i in range(n):
            for j in range(n):
                out[i, j] = aug[i][n + j]
        return out

    def mat_is_zero(self, mat):
        return all(v == 0 for v in mat.flat)


class _TruncatedRing(Ring):
    """Shared contract of the two truncated local rings.

    Both rings are complete quotients with maximal ideal m and residue field
    F_p; the quotients m^k / m^{k+1} are one dimensional over F_p, and
    ``digit`` / ``lift_digit`` realise that identification in both directions.
    """

    is_truncated = True
    p: int
    order: int  # nilpotency order N of the maximal ideal

    def residue_field(self) -> PrimeField:
        return PrimeField(self.p)

    def valuation(self, a) -> int:
        """Ideal-adic valuation; the zero element gets the truncation order."""
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        return self.valuation(a) == 0

    def invert_unit(self, a):
        raise NotImplementedError

    def digit(self, a, k: int) -> int:
        """Order-k coefficient, an element of the residue field."""
        raise NotImplementedError

    def lift_digit(self, r: int, k: int):
        """Canonical lift of a residue-field element into m^k."""
        raise NotImplementedError

    # matrix-level residue/digit maps (int64 arrays over F_p)
    def residue_matrix(self, mat):
        raise NotImplementedError

    def digit_matrix(self, mat, k: int):
        raise NotImplementedError

    def lift_digit_matrix(self, grid, k: int):
        raise NotImplementedError

    def min_valuation(self, mat) -> int:
        """Smallest entry valuation of a matrix (truncation order if zero)."""
        raise NotImplementedError

    def mat_inv(self, mat):
        # Newton iteration X <- X(2I - AX) doubles the correct order each
        # step, starting from the inverse of the residue matrix.
        res = self.residue_matrix(mat)
        inv0 = self.residue_field().mat_inv(res)
        x = self.from_int_matrix(inv0)
        n = self.shape(mat)[0]
        two_eye = self.mat_add(self.eye(n), self.eye(n))
        steps = max(1, (self.order - 1).bit_length())
        for _ in range(steps):
            x = self.mat_mul(x, self.mat_sub(two_eye, self.mat_mul(mat, x)))
        return x


class SeriesRing(_TruncatedRing):
    """F_p[h]/(h^N); scalars are tuples (c_0, ..., c_{N-1}) of residues."""

    def __init__(self, p: int, order: int):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.p = PrimeField(p).p  # reuse the primality check
        self.order = order

    def __repr__(self):
        return f"F{self.p}[h]/h^{self.order}"

    def __eq__(self, other):
        return isinstance(other, SeriesRing) and (other.p, other.order) == (self.p, self.order)

    def __hash__(self):
        return hash(("SeriesRing", self.p, self.order))

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

    def invert_unit(self, a):
        val = self.valuation(a)
        if val != 0:
            raise NotAUnitError(a, val)
        # b_k determined order by order from (a b)_k = 0 for k >= 1
        inv0 = pow(a[0], -1, self.p)
        out = [inv0] + [0] * (self.order - 1)
        for k in range(1, self.order):
            acc = sum(a[i] * out[k - i] for i in range(1, k + 1))
            out[k] = (-inv0 * acc) % self.p
        return tuple(out)

    def digit(self, a, k):
        return a[k] % self.p

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
        _check_products(self.p, self.order * a.shape[2])
        out = self.zeros(a.shape[1], b.shape[2])
        for k in range(self.order):
            acc = out[k]
            for i in range(k + 1):
                acc += a[i] @ b[k - i]
            out[k] = acc % self.p
        return out

    def mat_kron(self, a, b):
        ra, ca = self.shape(a)
        rb, cb = self.shape(b)
        _check_products(self.p, self.order)
        out = self.zeros(ra * rb, ca * cb)
        for k in range(self.order):
            acc = out[k]
            for i in range(k + 1):
                acc += np.kron(a[i], b[k - i])
            out[k] = acc % self.p
        return out

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

    def mat_is_zero(self, mat):
        return not np.any(mat % self.p)

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
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.p = PrimeField(p).p
        self.order = order
        if order >= 63 or p**order > INT64_MAX:  # p >= 2, so order >= 63 never fits
            raise ValueError(f"modulus {p}^{order} does not fit in int64 (at most {INT64_MAX})")
        self.modulus = p**order

    def __repr__(self):
        return f"Z/{self.p}^{self.order}"

    def __eq__(self, other):
        return isinstance(other, PadicRing) and (other.p, other.order) == (self.p, self.order)

    def __hash__(self):
        return hash(("PadicRing", self.p, self.order))

    def valuation(self, a):
        a %= self.modulus
        if a == 0:
            return self.order
        val = 0
        while a % self.p == 0:
            a //= self.p
            val += 1
        return val

    def invert_unit(self, a):
        val = self.valuation(a)
        if val != 0:
            raise NotAUnitError(a, val)
        return pow(a, -1, self.modulus)

    def digit(self, a, k):
        return (a % self.modulus) // self.p**k % self.p

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
    """Inverse of parse_ring for the four supported ring families."""
    if isinstance(ring, Rationals):
        return "Q"
    if isinstance(ring, PrimeField):
        return f"F{ring.p}"
    if isinstance(ring, SeriesRing):
        return f"F{ring.p}[h]/h^{ring.order}"
    if isinstance(ring, PadicRing):
        return f"Z/{ring.p}^{ring.order}"
    raise TypeError(f"unknown ring {ring!r}")
