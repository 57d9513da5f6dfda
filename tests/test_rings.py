import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ybrack as yb
from ybrack import rings
from ybrack.rings import NotAUnitError

from oracles import first_difference_longhand, rref_longhand, series_product_longhand


RINGS = [yb.parse_ring(s) for s in
         ("F2", "F3", "F5", "Q", "F3[h]/h^3", "F2[h]/h^4", "Z/2^4", "Z/3^2")]


def test_parse_ring_round_trip():
    for ring in RINGS:
        assert yb.parse_ring(yb.ring_spec(ring)) == ring


# Every method src/ calls on a ring: SHARED on all four families, TRUNCATED
# (behind ``is_truncated``) on F_p[h]/h^N and Z/p^N.  ``mul``, ``inv`` and
# ``mat_kron`` serve the oracles and the benchmark's spans.
SHARED = ("zero", "one", "from_int", "add", "sub", "neg", "mul", "is_zero", "eq",
          "scalar_str", "scalar_parse", "zeros", "eye", "from_int_matrix", "shape",
          "mat_add", "mat_sub", "mat_mul", "mat_kron", "mat_inv", "mat_eq",
          "first_difference", "mat_entry", "mat_set_entry")
TRUNCATED = ("residue_field", "residue_matrix", "digit_matrix", "lift_digit",
             "lift_digit_matrix", "valuation", "min_valuation")
SRC = Path(yb.__file__).parent


def test_every_ring_method_src_calls_resolves_on_every_family():
    called = {name for path in SRC.glob("*.py") if path.name != "rings.py"
              for name in re.findall(r"\b\w*(?:ring|field)\.(\w+)\(", path.read_text())}
    assert called and called <= set(SHARED) | set(TRUNCATED), called - set(SHARED + TRUNCATED)
    for ring in (yb.PrimeField(3), yb.Rationals(), yb.SeriesRing(3, 2), yb.PadicRing(3, 2)):
        wanted = SHARED + TRUNCATED if ring.is_truncated else SHARED
        missing = [name for name in wanted if not callable(getattr(ring, name, None))]
        assert not missing, (ring, missing)


def test_a_ring_is_its_spec():
    for ring in RINGS:
        spec = yb.ring_spec(ring)
        assert repr(ring) == spec
        twin = yb.parse_ring(spec)
        assert twin == ring and hash(twin) == hash(ring) and twin is not ring
    lookalikes = [yb.parse_ring(s) for s in ("F3", "Z/3^1", "F3[h]/h^1")]
    for i, a in enumerate(lookalikes):
        for b in lookalikes[i + 1:]:
            assert a != b and b != a


@pytest.mark.parametrize("p", [2, 3, 5, "Q"])
def test_prime_field_inverse_matches_the_longhand_rref(p):
    # over Q the entries are fractions, which mat_inv scales to integers per row
    field = yb.Rationals() if p == "Q" else yb.PrimeField(p)
    rng = np.random.default_rng(3 if p == "Q" else p)
    inverted = singular = 0
    for _ in range(60):
        n = int(rng.integers(1, 7))
        if p == "Q":
            dens = rng.integers(1, 4, size=(n, n))
            mat = field.from_int_matrix(rng.integers(-2, 3, size=(n, n))) / dens
        else:
            mat = rng.integers(0, p, size=(n, n))
        pivots, reduced = rref_longhand(
            [row + [field.from_int(int(i == j)) for j in range(n)]
             for i, row in enumerate(mat.tolist())], field)
        if pivots[:n] != list(range(n)):
            with pytest.raises(NotAUnitError):
                field.mat_inv(mat)
            singular += 1
            continue
        want = [[reduced[i].get(n + j, field.zero()) for j in range(n)] for i in range(n)]
        got = field.mat_inv(mat).tolist()
        assert got == want and {type(v) for row in got for v in row} <= {type(field.zero())}
        inverted += 1
    assert inverted and singular


@pytest.mark.parametrize("spec", ["F5", "F3[h]/h^3", "Z/3^2", "Q"])
def test_a_singular_residue_is_not_a_unit(spec):
    ring = yb.parse_ring(spec)
    mat = ring.from_int_matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])  # row 2 = 2 row 1
    if ring.is_truncated:  # units only in the higher digits: still singular
        mat = ring.mat_add(mat, ring.lift_digit_matrix(np.eye(3, dtype=np.int64), 1))
    with pytest.raises(NotAUnitError):
        ring.mat_inv(mat)


def test_parse_ring_rejects_garbage():
    for bad in ("F4", "F0", "Z/4^2", "F3[h]", "h^3", ""):
        with pytest.raises(ValueError):
            yb.parse_ring(bad)


def test_prime_field_arithmetic():
    F5 = yb.PrimeField(5)
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.neg(1) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_rationals_arithmetic_is_exact():
    Q = yb.Rationals()
    third = Q.inv(Fraction(3))
    assert third * 3 == 1
    assert Q.scalar_str(Fraction(-3, 4)) == "-3/4"
    assert Q.scalar_parse("-3/4") == Fraction(-3, 4)


def test_valuation_and_digits():
    ring = yb.parse_ring("F5[h]/h^4")
    u = ring.lift_digit(2, 1)
    assert ring.valuation(u) == 1
    mat = ring.zeros(1, 1)
    ring.mat_set_entry(mat, 0, 0, u)
    assert ring.digit_matrix(mat, 1).tolist() == [[2]]
    assert ring.digit_matrix(mat, 0).tolist() == [[0]]
    assert ring.valuation(ring.zero()) == ring.order

    padic = yb.parse_ring("Z/5^3")
    v = padic.lift_digit(3, 2)
    assert padic.valuation(v) == 2
    assert padic.digit_matrix(np.array([[v]]), 2).tolist() == [[3]]
    assert padic.residue_field() == yb.PrimeField(5)
    assert padic.residue_field() is padic.residue_field()


def test_series_matrix_multiplication_truncates():
    ring = yb.parse_ring("F2[h]/h^2")
    a = ring.zeros(1, 1)
    ring.mat_set_entry(a, 0, 0, (0, 1))  # h
    prod = ring.mat_mul(a, a)            # h^2 = 0
    assert ring.mat_eq(prod, ring.zeros(1, 1))


def test_truncated_matrix_inverse(monkeypatch):
    for ring in (r for r in RINGS if r.is_truncated):
        _check_truncated_inverse(ring, monkeypatch)


def _check_truncated_inverse(ring, monkeypatch):
    rng = np.random.default_rng(2)
    p = ring.p

    def lift(residue):
        mat = ring.from_int_matrix(residue)
        for k in range(1, ring.order):
            mat = ring.mat_add(mat, ring.lift_digit_matrix(rng.integers(0, p, size=(3, 3)), k))
        return mat

    def random_unit_residue():
        # P L U with unit-triangular L and U of nonzero diagonal: invertible mod p
        lower = np.tril(rng.integers(0, p, size=(3, 3)), -1) + np.eye(3, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, size=(3, 3)), 1) + np.diag(rng.integers(1, p, size=3))
        return np.eye(3, dtype=np.int64)[rng.permutation(3)] @ lower @ upper % p

    def assert_inverse(mat):
        inv = ring.mat_inv(mat)
        assert ring.mat_eq(ring.mat_mul(mat, inv), ring.eye(3))
        assert ring.mat_eq(ring.mat_mul(inv, mat), ring.eye(3))

    general = [lift(random_unit_residue()) for _ in range(20)]
    assert any(np.any(ring.residue_matrix(m) != np.eye(3)) for m in general)
    for mat in general:
        assert_inverse(mat)
    # residue I, as for every gauge transform: Newton starts at I, no elimination
    with monkeypatch.context() as patch:
        patch.setattr(yb.PrimeField, "mat_inv", lambda *_: pytest.fail("residue I eliminated"))
        for _ in range(20):
            assert_inverse(lift(np.eye(3, dtype=np.int64)))
    singular = np.array([[1, 2, 0], [0, 1, 1], [1, 3, 1]])  # row 3 = row 1 + row 2
    with pytest.raises(NotAUnitError):
        ring.mat_inv(lift(singular))


def test_first_difference_reports_lowest_order():
    ring = yb.parse_ring("F2[h]/h^3")
    a = ring.eye(2)
    b = ring.mat_add(a, ring.lift_digit_matrix(np.array([[0, 1], [0, 0]]), 2))
    assert ring.first_difference(a, b) == (0, 1)
    assert ring.min_valuation(ring.mat_sub(a, b)) == 2


def _products_oracle(a, b, modulus):
    """Exact matrix product mod ``modulus`` in Python ints."""
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % modulus for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("inner,below,above", [
    (1, 3037000493, 3037000507),   # the primes around the largest m with (m - 1)^2 < 2^63
    (2, 2147483647, 2147483659),   # ... and with 2 (m - 1)^2 < 2^63
])
def test_prime_field_products_at_the_int64_bound(inner, below, above):
    rng = np.random.default_rng(inner)
    field = yb.PrimeField(below)
    for _ in range(20):
        a = rng.integers(below - 3, below, size=(3, inner))
        b = rng.integers(below - 3, below, size=(inner, 2))
        assert field.mat_mul(a, b).tolist() == _products_oracle(a, b, below)
    worst = np.full((1, 1), below - 1)
    assert field.mat_kron(worst, worst).tolist() == [[(below - 1) ** 2 % below]]
    field = yb.PrimeField(above)
    a = np.full((1, inner), above - 1)
    with pytest.raises(ValueError, match=f"mod {above} can leave int64"):
        field.mat_mul(a, a.T)
    if inner == 1:
        for call in (lambda: field.mat_kron(a, a), lambda: field.mat_inv(a)):
            with pytest.raises(ValueError, match="can leave int64"):
                call()


def test_known_int64_overflows_are_refused():
    p = 4294967311
    with pytest.raises(ValueError, match="can leave int64"):
        yb.PrimeField(p).mat_mul(np.array([[p - 1]]), np.array([[p - 1]]))
    with pytest.raises(ValueError, match="can leave int64"):
        yb.PadicRing(3, 21).mat_mul(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64))


def test_padic_products_at_the_int64_bound():
    ring = yb.PadicRing(3, 19)      # 6 (3^19 - 1)^2 < 2^63 <= 7 (3^19 - 1)^2
    rng = np.random.default_rng(19)
    a = rng.integers(ring.modulus - 9, ring.modulus, size=(2, 6))
    b = rng.integers(ring.modulus - 9, ring.modulus, size=(6, 3))
    assert ring.mat_mul(a, b).tolist() == _products_oracle(a, b, ring.modulus)
    with pytest.raises(ValueError, match="can leave int64"):
        ring.mat_mul(np.ones((2, 7), dtype=np.int64), np.ones((7, 2), dtype=np.int64))
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="can leave int64"):
        yb.PadicRing(3, 20).mat_mul(one, one)   # 3^20 - 1 > 3037000499


def test_series_products_count_every_coefficient_term():
    p = 2147483647                  # 2 (p - 1)^2 < 2^63 <= 4 (p - 1)^2
    ring = yb.SeriesRing(p, 2)
    rng = np.random.default_rng(2)
    a, b = rng.integers(p - 3, p, size=(2, 2, 1, 1))
    prod = ring.mat_mul(a, b)
    assert int(prod[0, 0, 0]) == int(a[0, 0, 0]) * int(b[0, 0, 0]) % p
    assert int(prod[1, 0, 0]) == (int(a[0, 0, 0]) * int(b[1, 0, 0])
                                  + int(a[1, 0, 0]) * int(b[0, 0, 0])) % p
    assert ring.mat_kron(a, b).tolist() == prod.tolist()
    with pytest.raises(ValueError, match="can leave int64"):
        ring.mat_mul(ring.zeros(1, 2), ring.zeros(2, 1))
    longer = yb.SeriesRing(p, 4)
    with pytest.raises(ValueError, match="can leave int64"):
        longer.mat_kron(longer.zeros(1, 1), longer.zeros(1, 1))


# The float64 product is exact while N * inner * (m - 1)^2 < 2^53.  Each ring
# multiplies all-(m - 1) stacks just below that bound, and all-(m - 2) stacks
# just above it, where the top coefficient's sums N * inner * (m - 2)^2 are odd
# and lie in (2^53, 2^54): float64 would round them to even.
BELOW_2_53, ABOVE_2_53 = 54794149, 54794197   # consecutive primes around 3 (p - 1)^2 = 2^53


@pytest.mark.parametrize("ring,inner,above", [
    (yb.PrimeField(BELOW_2_53), 3, False), (yb.PrimeField(ABOVE_2_53), 3, True),
    (yb.SeriesRing(BELOW_2_53, 3), 1, False), (yb.SeriesRing(ABOVE_2_53, 3), 1, True),
    (yb.PadicRing(3, 16), 4, False), (yb.PadicRing(3, 16), 5, True),
])
def test_products_at_the_float64_bound(ring, inner, above):
    series = isinstance(ring, yb.SeriesRing)
    order, m = (ring.order, ring.p) if series else (1, ring.modulus)
    terms = order * inner
    if above:
        assert 2**53 < terms * (m - 2) ** 2 < terms * (m - 1) ** 2 < 2**54
        assert terms * (m - 2) ** 2 % 2 == 1
    else:
        assert terms * (m - 1) ** 2 < 2**53
    top = m - 2 if above else m - 1
    a, b = np.full((order, 2, inner), top), np.full((order, inner, 3), top)
    got = ring.mat_mul(a, b) if series else ring.mat_mul(a[0], b[0])[None]
    assert got.tolist() == series_product_longhand(m, a, b)


@pytest.mark.parametrize("spec", ["F2[h]/h^4", "F3[h]/h^3", "F5[h]/h^6"])
def test_series_products_match_the_schoolbook_longhand(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(ring.order)
    # the shapes check_ybe multiplies on 3- and 4-element racks, and empty ones
    for rows, inner, cols in ((9, 9, 81), (16, 16, 256), (0, 3, 5), (3, 0, 5), (3, 5, 0)):
        a = rng.integers(0, ring.p, size=(ring.order, rows, inner))
        b = rng.integers(0, ring.p, size=(ring.order, inner, cols))
        got = ring.mat_mul(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == series_product_longhand(ring.p, a, b)


def _random_matrix(ring, rows, cols, rng):
    """A matrix of random scalars; over Q most of them are not integers."""
    mat = ring.zeros(rows, cols)
    for i, j in np.ndindex(rows, cols):
        if isinstance(ring, yb.Rationals):
            value = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        elif isinstance(ring, yb.SeriesRing):
            value = tuple(rng.integers(0, ring.p, ring.order).tolist())
        else:
            value = int(rng.integers(0, ring.modulus))
        ring.mat_set_entry(mat, i, j, value)
    return mat


def _bumped(ring, mat, bumps):
    """A copy of mat with each scalar of {(i, j): scalar} added to its entry."""
    out = mat.copy()
    for (i, j), value in bumps.items():
        ring.mat_set_entry(out, i, j, ring.add(ring.mat_entry(out, i, j), value))
    return out


@pytest.mark.parametrize("spec", ["F2[h]/h^4", "F5[h]/h^6", "F5", "Q", "Z/3^2"])
def test_series_kron_multiplies_every_entry_pair(spec):
    # mat_kron, first_difference, zeros, eye and shape are defined once, on Ring
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(len(spec))
    a, b = _random_matrix(ring, 2, 3, rng), _random_matrix(ring, 3, 2, rng)
    if isinstance(ring, yb.Rationals):
        assert any(v.denominator > 1 for v in a.flat)
    kron = ring.mat_kron(a, b)
    assert tuple(ring.shape(kron)) == (6, 6)
    for i, j, k, l in np.ndindex(2, 3, 3, 2):
        assert ring.mat_entry(kron, 3 * i + k, 2 * j + l) == ring.mul(
            ring.mat_entry(a, i, j), ring.mat_entry(b, k, l))
    assert ring.first_difference(a, a.copy()) is None
    for _ in range(20):
        where = {tuple(rng.integers(0, (2, 3)).tolist()): ring.one()
                 for _ in range(rng.integers(1, 3))}
        moved = _bumped(ring, a, where)
        assert ring.first_difference(a, moved) == first_difference_longhand(ring, a, moved)
    if ring.is_truncated:
        # (0, 1) differs only in its top digit, layer N - 1 of F_p[h]/h^N; (1, 0) in all
        top = ring.lift_digit(1, ring.order - 1)
        moved = _bumped(ring, a, {(0, 1): top, (1, 0): ring.one()})
        assert ring.valuation(ring.sub(ring.mat_entry(moved, 0, 1), ring.mat_entry(a, 0, 1))) \
            == ring.order - 1
        assert ring.first_difference(a, moved) == first_difference_longhand(ring, a, moved) \
            == (0, 1)


@pytest.mark.parametrize("spec,fits", [
    ("Z/2^62", True), ("Z/2^63", False), ("Z/3^39", True), ("Z/3^40", False),
    ("Z/3^50", False), ("Z/2^1000000", False), ("F9223372036854775837", False),
    ("F9223372036854775837[h]/h^2", False),
])
def test_moduli_beyond_int64_are_refused(spec, fits):
    if fits:
        assert yb.parse_ring(spec).modulus < 2**63
    else:
        with pytest.raises(ValueError, match="does not fit in int64"):
            yb.parse_ring(spec)


def test_primality_agrees_with_trial_division_below_100000():
    sieve = np.ones(10**5, dtype=bool)
    sieve[:2] = False
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = False
    assert [n for n in range(10**5) if rings._is_prime(n)] == np.flatnonzero(sieve).tolist()


def test_a_prime_near_2_63_is_accepted_at_once():
    start = time.perf_counter()
    assert yb.PrimeField(2**63 - 25).p == 2**63 - 25
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [561, 3215031751])  # Carmichael; strong pseudoprime to 2, 3, 5, 7
def test_pseudoprimes_are_refused(n):
    with pytest.raises(ValueError, match="is not prime"):
        yb.PrimeField(n)


def test_rational_products_over_mixed_denominators():
    Q = yb.Rationals()
    rng = np.random.default_rng(7)
    a, b = (np.array([Fraction(int(n), int(d)) for n, d in zip(
        rng.integers(-9, 10, size=rows * cols), rng.integers(1, 7, size=rows * cols))],
        dtype=object).reshape(rows, cols) for rows, cols in ((4, 5), (5, 3)))
    want = [[sum(a[i, k] * b[k, j] for k in range(5)) for j in range(3)] for i in range(4)]
    got = Q.mat_mul(a, b)
    assert got.tolist() == want and all(type(v) is Fraction for v in got.flat)
    assert Q.mat_mul(b.T, a.T).tolist() == [list(row) for row in zip(*want)]


def test_scaled_rows_scale_each_row_by_the_lcm_of_its_denominators():
    # row 0 mixes denominators 2, 3 and 1 (lcm 6), row 1 is integral, row 2 has lcm 4;
    # the two halves are one object, as equal values are in a matrix from from_coo
    half = Fraction(1, 2)
    values = np.array([half, Fraction(-2, 3), Fraction(5), half, Fraction(7), Fraction(-1),
                       Fraction(1, 4), half], dtype=object)
    row = np.array([0, 0, 0, 0, 1, 1, 2, 2])
    scaled = rings._scaled_rows(row, values)
    assert scaled.dtype == np.int64
    assert scaled.tolist() == [3, -4, 30, 3, 7, -1, 1, 2]
    integral = np.array([Fraction(2), Fraction(-1), Fraction(2)], dtype=object)
    assert rings._scaled_rows(np.array([0, 0, 1]), integral).tolist() == [2, -1, 2]
    # a value beyond int64 turns the whole result into Python ints
    big = rings._scaled_rows(np.array([0, 1]), np.array([Fraction(2**70, 3), half], dtype=object))
    assert big.dtype == object and big.tolist() == [2**70, 1]
