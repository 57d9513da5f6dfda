import numpy as np
import pytest

import ybrack as yb
from conftest import small_rack_sample
from oracles import braid_verdict_longhand, lift_longhand

F2 = yb.PrimeField(2)
F3 = yb.PrimeField(3)

# golden permutation positions (row -> column of its 1) for the three
# operators, matching the assets under ybrack/data/golden
GOLDEN = {
    "dihedral3": {0: 0, 1: 6, 2: 3, 3: 7, 4: 4, 5: 1, 6: 5, 7: 2, 8: 8},
    "quandle3": {0: 0, 1: 3, 2: 6, 3: 1, 4: 4, 5: 7, 6: 5, 7: 2, 8: 8},
    "dihedral4": {0: 0, 1: 4, 2: 12, 3: 8, 4: 1, 5: 5, 6: 13, 7: 9,
                  8: 6, 9: 2, 10: 10, 11: 14, 12: 7, 13: 3, 14: 11, 15: 15},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rack_operator_matches_golden_matrix(name):
    rack = yb.catalog.FIXTURE_RACKS[name]()
    op = yb.rack_operator(rack, F2)
    n2 = rack.size ** 2
    want = np.zeros((n2, n2), dtype=np.int64)
    for row, col in GOLDEN[name].items():
        want[row, col] = 1
    assert np.array_equal(op.matrix, want)


def test_trivial_rack_gives_the_transposition():
    op = yb.rack_operator(yb.trivial_rack(3), F2)
    for x1 in range(3):
        for x2 in range(3):
            assert op.entry((x2, x1), (x1, x2)) == 1


def test_lift_two_strands_is_the_operator():
    op = yb.rack_operator(yb.catalog.quandle3(), F3)
    assert np.array_equal(lift_longhand(F3, op.matrix, 3, 2, 1), op.matrix)


def test_lift_position_out_of_range():
    op = yb.rack_operator(yb.catalog.quandle3(), F3)
    with pytest.raises(ValueError):
        lift_longhand(F3, op.matrix, 3, 3, 3)


def test_transposition_lifts_satisfy_braid_relation():
    tau = yb.rack_operator(yb.trivial_rack(2), F3)
    c1 = lift_longhand(F3, tau.matrix, 2, 3, 1)
    c2 = lift_longhand(F3, tau.matrix, 2, 3, 2)
    assert np.array_equal(F3.mat_mul(c1, F3.mat_mul(c2, c1)),
                          F3.mat_mul(c2, F3.mat_mul(c1, c2)))


def test_far_commutation_on_four_strands():
    for rack in (yb.catalog.quandle3(), yb.dihedral_quandle(2)):
        op = yb.rack_operator(rack, F2)
        c1 = lift_longhand(F2, op.matrix, rack.size, 4, 1)
        c3 = lift_longhand(F2, op.matrix, rack.size, 4, 3)
        assert np.array_equal(F2.mat_mul(c1, c3), F2.mat_mul(c3, c1))


def test_check_ybe_holds_for_all_sample_racks():
    racks = small_rack_sample()
    assert len(racks) >= 20
    for rack in racks:
        assert yb.check_ybe(yb.rack_operator(rack, F2)).holds
        assert yb.check_ybe(yb.rack_operator(rack, F3)).holds
    # one rational-coefficient spot check (permutation entries are 0/1, so
    # the braid products agree over Q iff they agree over any prime field)
    assert yb.check_ybe(yb.rack_operator(yb.catalog.quandle3(), yb.Rationals())).holds


def broken_magma_grid():
    """Operator grid of a magma whose right translations are bijections but
    which is not self-distributive."""
    table = [[1, 0, 0], [2, 1, 1], [0, 2, 2]]
    grid = np.zeros((9, 9), dtype=np.int64)
    for x1 in range(3):
        for x2 in range(3):
            grid[x2 * 3 + table[x1][x2], x1 * 3 + x2] = 1
    return grid


def test_check_ybe_fails_for_a_broken_magma():
    op = yb.operator_from_matrix(F2, 3, F2.from_int_matrix(broken_magma_grid()))
    verdict = yb.check_ybe(op)
    assert not verdict.holds
    i, j, lhs, rhs = verdict.witness
    # the witness really is a differing entry of the two composites
    c1 = lift_longhand(F2, op.matrix, 3, 3, 1)
    c2 = lift_longhand(F2, op.matrix, 3, 3, 2)
    left = F2.mat_mul(c1, F2.mat_mul(c2, c1))
    right = F2.mat_mul(c2, F2.mat_mul(c1, c2))
    assert left[i, j] == lhs and right[i, j] == rhs and lhs != rhs


def test_operator_invertibility_check():
    grid = np.zeros((4, 4), dtype=np.int64)
    grid[0, 0] = 1  # rank 1
    with pytest.raises(yb.InvalidOperatorError):
        yb.operator_from_matrix(F2, 2, F2.from_int_matrix(grid))


def _products_longhand(a, b, modulus):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % modulus for col in zip(*b)]
            for row in a.tolist()]


@pytest.mark.parametrize("name", ["quandle3", "dihedral4"])
def test_unreduced_caller_matrices_are_reduced_where_they_enter(name):
    # entries of 5 U with U in [2^26, 2^27) push float64 partial sums past 2^53,
    # which products of residues mod 5 never reach
    F5 = yb.PrimeField(5)
    rng = np.random.default_rng(27)
    base = yb.rack_operator(yb.catalog.FIXTURE_RACKS[name](), F5)
    unreduced = base.matrix + 5 * rng.integers(2**26, 2**27, size=base.matrix.shape)
    op = yb.operator_from_matrix(F5, base.dim, unreduced)
    assert yb.check_ybe(op)
    assert F5.mat_mul(op.matrix, op.matrix).tolist() == _products_longhand(
        unreduced, unreduced, 5)
    ring = yb.parse_ring("F5[h]/h^2")
    eye = ring.eye(base.dim)
    alpha = yb.GaugeTransform(ring, eye + 5 * rng.integers(2**26, 2**27, size=eye.shape))
    assert np.array_equal(alpha.matrix, eye)


def test_gauge_transform_requires_identity_residue():
    ring = yb.parse_ring("F3[h]/h^2")
    bad = ring.from_int_matrix(2 * np.eye(3, dtype=np.int64))
    with pytest.raises(yb.InvalidOperatorError):
        yb.GaugeTransform(ring, bad)


def test_gauge_conjugation_by_identity_and_scalars():
    ring = yb.parse_ring("F3[h]/h^3")
    op = yb.rack_operator(yb.catalog.quandle3(), ring)
    ident = yb.GaugeTransform(ring, ring.eye(3))
    assert ring.mat_eq(yb.gauge_conjugate(op, ident).matrix, op.matrix)
    # u * identity for a unit u congruent to 1: the scalars cancel
    u_mat = ring.mat_add(ring.eye(3), ring.lift_digit_matrix(2 * np.eye(3, dtype=int), 1))
    scalar = yb.GaugeTransform(ring, u_mat)
    assert ring.mat_eq(yb.gauge_conjugate(op, scalar).matrix, op.matrix)


def test_gauge_conjugation_changes_term_by_a_coboundary():
    # conjugating by id + h E changes the deformation term by -d(E) at order 1
    ring = yb.parse_ring("F3[h]/h^3")
    rack = yb.catalog.quandle3()
    base = yb.rack_operator(rack, ring)
    rng = np.random.default_rng(8)
    for _ in range(10):
        e_vals = rng.integers(0, 3, size=(3, 3))
        e = yb.Cochain(rack, 1, F3, e_vals % 3)
        alpha = yb.GaugeTransform(
            ring, ring.mat_add(ring.eye(3), ring.lift_digit_matrix(e.as_operator_matrix(), 1)))
        conj = yb.gauge_conjugate(base, alpha)
        order1 = ring.digit_matrix(yb.deformation_term(conj), 1)
        want = (-yb.coboundary(e).as_operator_matrix()) % 3
        assert np.array_equal(order1, want)


def test_check_ybe_is_gauge_invariant():
    ring = yb.parse_ring("F3[h]/h^3")
    rng = np.random.default_rng(12)
    racks = small_rack_sample()
    for trial in range(50):
        rack = racks[int(rng.integers(len(racks)))]
        op = yb.rack_operator(rack, ring)
        pert = ring.zeros(rack.size, rack.size)
        for k in range(1, ring.order):
            pert = ring.mat_add(pert, ring.lift_digit_matrix(
                rng.integers(0, 3, size=(rack.size, rack.size)), k))
        alpha = yb.GaugeTransform(ring, ring.mat_add(ring.eye(rack.size), pert))
        conjugated = yb.gauge_conjugate(op, alpha)
        assert yb.check_ybe(op).holds == yb.check_ybe(conjugated).holds


def test_deform_rejects_unit_entries():
    ring = yb.parse_ring("F2[h]/h^2")
    rack = yb.catalog.quandle3()
    base = yb.rack_operator(rack, ring)
    term = ring.from_int_matrix(np.eye(9, dtype=np.int64))  # valuation 0
    with pytest.raises(yb.InvalidOperatorError):
        yb.deform(base, term)


def test_deform_zero_term_gives_the_base():
    ring = yb.parse_ring("F2[h]/h^3")
    rack = yb.catalog.quandle3()
    base = yb.rack_operator(rack, ring)
    deformed = yb.deform(base, ring.zeros(9, 9))
    assert ring.mat_eq(deformed.matrix, base.matrix)


def test_deform_residue_is_the_base():
    ring = yb.parse_ring("F5[h]/h^4")
    rack = yb.catalog.quandle3()
    params = {f"l{i}": ring.lift_digit(i % 5, 1) for i in range(1, 10)}
    defm = yb.instantiate_family("quandle3-f", ring, params)
    base = yb.rack_operator(rack, ring)
    assert np.array_equal(ring.residue_matrix(defm.operator.matrix),
                          ring.residue_matrix(base.matrix))


def test_operator_dump_round_trip():
    ring = yb.parse_ring("F2[h]/h^3")
    rack = yb.catalog.quandle3()
    params = yb.random_family_parameters("quandle3-f", ring, np.random.default_rng(3))
    defm = yb.instantiate_family("quandle3-f", ring, params)
    text = yb.dump_operator(defm.operator)
    back = yb.load_operator(text, rack=rack)
    assert back.ring == ring
    assert ring.mat_eq(back.matrix, defm.operator.matrix)


def _random_layout(ring, n, rng):
    """A random n x n matrix in the ring's layout; fractions over Q."""
    if ring.is_truncated:
        grid = ring.zeros(n, n)
        for k in range(ring.order):
            grid = ring.mat_add(grid, ring.lift_digit_matrix(rng.integers(0, ring.p, (n, n)), k))
        return grid
    grid = ring.from_int_matrix(rng.integers(-4, 5, (n, n)))
    return grid / 3 if isinstance(ring, yb.Rationals) else grid


@pytest.mark.parametrize("spec", ["F5", "Q", "F3[h]/h^3", "Z/3^2"])
def test_operator_dump_round_trips_over_every_layout(spec):
    ring = yb.parse_ring(spec)
    rack = yb.catalog.dihedral4()
    n = rack.size ** 2
    upper = _random_layout(ring, n, np.random.default_rng(11)) * np.triu(np.ones((n, n), int), 1)
    matrix = ring.mat_mul(yb.rack_operator(rack, ring).matrix, ring.mat_add(ring.eye(n), upper))
    op = yb.operator_from_matrix(ring, rack.size, matrix)
    text = yb.dump_operator(op)
    back = yb.load_operator(text)
    assert back.ring == ring and ring.mat_eq(back.matrix, op.matrix)
    assert yb.dump_operator(back) == text


@pytest.mark.parametrize("rows", [8, 2**62 + 1])
def test_load_operator_refuses_a_non_square_row_count(rows):
    with pytest.raises(ValueError, match=f"{rows} rows, which is not a perfect square"):
        yb.load_operator(f"F2\n{rows} 1 2\n")


INVERSE_RINGS = ["F2[h]/h^4", "F3[h]/h^3", "Z/2^2", "Z/3^2"]


def random_ideal_matrix(ring, rows, cols, rng):
    """Random matrix with every entry in the maximal ideal."""
    out = ring.zeros(rows, cols)
    for k in range(1, ring.order):
        out = ring.mat_add(out, ring.lift_digit_matrix(
            rng.integers(0, ring.p, size=(rows, cols)), k))
    return out


@pytest.mark.parametrize("spec", INVERSE_RINGS)
def test_gauge_conjugate_matches_the_kronecker_square_inverse(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(31)
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral4()):
        n = rack.size
        op = yb.deform(yb.rack_operator(rack, ring), random_ideal_matrix(ring, n * n, n * n, rng))
        for _ in range(3):
            alpha = ring.mat_add(ring.eye(n), random_ideal_matrix(ring, n, n, rng))
            a2 = ring.mat_kron(alpha, alpha)
            want = ring.mat_mul(ring.mat_inv(a2), ring.mat_mul(op.matrix, a2))
            got = yb.gauge_conjugate(op, yb.GaugeTransform(ring, alpha))
            assert ring.mat_eq(got.matrix, want)


@pytest.mark.parametrize("spec", INVERSE_RINGS)
def test_deformation_term_inverts_deform(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(32)
    for rack in small_rack_sample()[::4]:
        n2 = rack.size ** 2
        term = random_ideal_matrix(ring, n2, n2, rng)
        op = yb.deform(yb.rack_operator(rack, ring), term)
        assert ring.mat_eq(yb.deformation_term(op), term)


def verdict_matches_longhand(op):
    """Assert check_ybe agrees with the Kronecker-lift longhand; its verdict."""
    verdict = yb.check_ybe(op)
    assert (verdict.holds, verdict.witness, verdict.failure_order) == \
        braid_verdict_longhand(op.ring, op.matrix, op.dim)
    return verdict.holds


def test_check_ybe_matches_the_longhand_on_every_sample_rack():
    for ring in (F2, F3, yb.Rationals()):
        for rack in small_rack_sample():
            assert verdict_matches_longhand(yb.rack_operator(rack, ring))


@pytest.mark.parametrize("spec", INVERSE_RINGS)
def test_check_ybe_matches_the_longhand_on_ideal_deformations(spec):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(33)
    ops = [yb.operator_from_matrix(ring, 3, ring.from_int_matrix(broken_magma_grid()))]
    for rack in (yb.catalog.quandle3(), yb.catalog.dihedral4()):
        n2 = rack.size ** 2
        base = yb.rack_operator(rack, ring)
        ops += [yb.deform(base, random_ideal_matrix(ring, n2, n2, rng)) for _ in range(2)]
    for family, symmetric in (("quandle3-f", True), ("dihedral4-f", True),
                              ("dihedral4-f", False), ("dihedral4-g", False)):
        params = yb.random_family_parameters(family, ring, rng, symmetric=symmetric)
        ops.append(yb.instantiate_family(family, ring, params).operator)
    verdicts = [verdict_matches_longhand(op) for op in ops]
    assert True in verdicts and False in verdicts
