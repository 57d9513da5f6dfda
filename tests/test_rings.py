from fractions import Fraction

import numpy as np
import pytest

import ybrack as yb
from ybrack.rings import NotAUnitError


RINGS = [yb.parse_ring(s) for s in
         ("F2", "F3", "F5", "Q", "F3[h]/h^3", "F2[h]/h^4", "Z/2^4", "Z/3^2")]


def test_parse_ring_round_trip():
    for ring in RINGS:
        assert yb.parse_ring(yb.ring_spec(ring)) == ring


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


def test_invert_unit_one_is_one():
    ring = yb.parse_ring("F3[h]/h^3")
    assert ring.invert_unit(ring.one()) == ring.one()


def test_invert_unit_one_plus_h():
    # (1+h)(1 + 2h + h^2) = 1 + 3h + 3h^2 + h^3 = 1 in F3[h]/h^3
    ring = yb.parse_ring("F3[h]/h^3")
    u = (1, 1, 0)
    inv = ring.invert_unit(u)
    assert inv == (1, 2, 1)
    assert ring.mul(u, inv) == ring.one()


def test_invert_unit_padic():
    # 3 * 11 = 33 = 1 mod 16
    ring = yb.parse_ring("Z/2^4")
    assert ring.invert_unit(3) == 11


def test_invert_nonunit_reports_valuation():
    ring = yb.parse_ring("F3[h]/h^3")
    with pytest.raises(NotAUnitError) as err:
        ring.invert_unit((0, 1, 0))
    assert err.value.valuation == 1
    padic = yb.parse_ring("Z/3^2")
    with pytest.raises(NotAUnitError) as err:
        padic.invert_unit(3)
    assert err.value.valuation == 1


def test_invert_unit_is_an_involution():
    rng = np.random.default_rng(1)
    for spec in ("F3[h]/h^3", "F2[h]/h^4", "Z/2^4", "Z/3^2"):
        ring = yb.parse_ring(spec)
        for _ in range(100):
            digits = [int(rng.integers(1, ring.p))] + \
                     [int(rng.integers(ring.p)) for _ in range(ring.order - 1)]
            u = ring.zero()
            for k, d in enumerate(digits):
                u = ring.add(u, ring.lift_digit(d, k))
            assert ring.is_unit(u)
            assert ring.invert_unit(ring.invert_unit(u)) == u


def test_valuation_and_digits():
    ring = yb.parse_ring("F5[h]/h^4")
    u = ring.lift_digit(2, 1)
    assert ring.valuation(u) == 1
    assert ring.digit(u, 1) == 2 and ring.digit(u, 0) == 0
    assert ring.valuation(ring.zero()) == ring.order

    padic = yb.parse_ring("Z/5^3")
    v = padic.lift_digit(3, 2)
    assert padic.valuation(v) == 2
    assert padic.digit(v, 2) == 3
    assert padic.residue_field() == yb.PrimeField(5)


def test_series_matrix_multiplication_truncates():
    ring = yb.parse_ring("F2[h]/h^2")
    a = ring.zeros(1, 1)
    ring.mat_set_entry(a, 0, 0, (0, 1))  # h
    prod = ring.mat_mul(a, a)            # h^2 = 0
    assert ring.mat_is_zero(prod)


def test_truncated_matrix_inverse():
    rng = np.random.default_rng(2)
    for spec in ("F3[h]/h^3", "Z/2^4"):
        ring = yb.parse_ring(spec)
        for _ in range(20):
            mat = ring.eye(3)
            for k in range(1, ring.order):
                mat = ring.mat_add(mat, ring.lift_digit_matrix(
                    rng.integers(0, ring.p, size=(3, 3)), k))
            inv = ring.mat_inv(mat)
            assert ring.mat_eq(ring.mat_mul(mat, inv), ring.eye(3))
            assert ring.mat_eq(ring.mat_mul(inv, mat), ring.eye(3))


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
