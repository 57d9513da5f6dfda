from types import SimpleNamespace

import numpy as np
import pytest

import ybrack as yb
from ybrack import deformations, linalg
from ybrack.catalog import DIHEDRAL4_F, DIHEDRAL4_G, QUANDLE3_F
from ybrack.cochains import cochain_to_vector, pair_mask, sub as csub

F2 = yb.PrimeField(2)

F_NAMES = sorted({v for v in DIHEDRAL4_F.values()})
G_NAMES = sorted({v for v in DIHEDRAL4_G.values()})
Q3_NAMES = sorted({v for v in QUANDLE3_F.values()})

# parameters interacting with each primed pair of the f-family; keeping the
# rest of a draw outside this set makes the order-two obstruction a single
# bilinear term, so an asymmetric draw provably fails
F_TRIGGERS = {"l5": "l6", "l7": "l6", "l9": "l10", "l11": "l10"}
F_NEUTRAL = {"l5": ["l1", "l8", "l13", "l14", "l15", "l16"],
             "l7": ["l1", "l8", "l13", "l14", "l15", "l16"],
             "l9": ["l1", "l2", "l3", "l4", "l12", "l13"],
             "l11": ["l1", "l2", "l3", "l4", "l12", "l13"]}


def asymmetric_f_params(ring, rng):
    """A generic violating draw: one primed pair split at order one, its
    trigger parameter a unit at order one, everything else neutral."""
    pair = ("l5", "l7", "l9", "l11")[int(rng.integers(4))]
    params = {name: ring.zero() for name in F_NAMES}
    unit = lambda: int(rng.integers(1, ring.p)) if ring.p > 2 else 1
    params[pair + "p"] = ring.lift_digit(unit(), 1)
    params[F_TRIGGERS[pair]] = ring.lift_digit(unit(), 1)
    for name in F_NEUTRAL[pair]:
        params[name] = ring.lift_digit(int(rng.integers(ring.p)), 1)
    return params


def asymmetric_g_params(ring, rng):
    """Random draw with one pair forced apart at order one."""
    params = yb.random_family_parameters("dihedral4-g", ring, rng)
    pair = ("a", "b", "g", "d")[int(rng.integers(4))]
    params[pair + "pp"] = ring.add(params[pair + "p"], ring.lift_digit(1, 1))
    return params


def random_gauge(ring, dim, rng):
    pert = ring.zeros(dim, dim)
    for k in range(1, ring.order):
        pert = ring.mat_add(pert, ring.lift_digit_matrix(
            rng.integers(0, ring.p, size=(dim, dim)), k))
    return yb.GaugeTransform(ring, ring.mat_add(ring.eye(dim), pert))


def offdiagonal_entry_count(defm):
    ring = defm.ring
    term = defm.term_offset()
    mask = ~pair_mask(defm.rack, 2, "quasidiagonal")
    return sum(int(np.count_nonzero(ring.digit_matrix(term, k).T * mask))
               for k in range(ring.order))


def test_truncated_deformation_requires_matching_residue():
    ring = yb.parse_ring("F2[h]/h^2")
    wrong = yb.rack_operator(yb.catalog.dihedral3(), ring)
    with pytest.raises(yb.DeformationError):
        yb.TruncatedDeformation(rack=yb.catalog.quandle3(), ring=ring, operator=wrong)


def test_split_quasidiagonal_term_is_zero():
    ring = yb.parse_ring("F5[h]/h^4")
    params = {f"l{i}": ring.lift_digit(i % 5, 1) for i in range(1, 10)}
    defm = yb.instantiate_family("quandle3-f", ring, params)
    for k in range(1, ring.order):
        assert yb.split_non_quasidiagonal(defm, k).is_zero()


def test_split_extracts_the_order_one_part():
    # deform by h E with E a single entry off the quasi-diagonal; the split
    # at order one recovers E (the cocycle assertion only applies when the
    # operator solves the braid relation one order further, which this
    # arbitrary E does not)
    ring = yb.parse_ring("F3[h]/h^3")
    rack = yb.catalog.quandle3()
    base = yb.rack_operator(rack, ring)
    field = ring.residue_field()
    e = yb.cochain_from_entries(rack, 2, field, {((0, 0), (0, 2)): 1})
    operator = yb.deform(base, ring.lift_digit_matrix(e.as_operator_matrix(), 1))
    defm = yb.TruncatedDeformation(rack=rack, ring=ring, operator=operator)
    got = yb.split_non_quasidiagonal(defm, 1)
    assert np.array_equal(got.values, e.values)


def test_split_of_gauged_family_is_a_coboundary_part():
    # conjugating a quasi-diagonal deformation by id + h G makes the order-1
    # non-quasi-diagonal part the off-part of -d(G)
    ring = yb.parse_ring("F2[h]/h^4")
    rack = yb.catalog.quandle3()
    field = ring.residue_field()
    rng = np.random.default_rng(80)
    for _ in range(10):
        params = yb.random_family_parameters("quandle3-f", ring, rng)
        clean = yb.instantiate_family("quandle3-f", ring, params)
        g_vals = rng.integers(0, 2, size=(3, 3))
        g = yb.Cochain(rack, 1, field, g_vals % 2)
        alpha = yb.GaugeTransform(ring, ring.mat_add(
            ring.eye(3), ring.lift_digit_matrix(g.as_operator_matrix(), 1)))
        disguised = yb.TruncatedDeformation(
            rack=rack, ring=ring, operator=yb.gauge_conjugate(clean.operator, alpha))
        got = yb.split_non_quasidiagonal(disguised, 1)
        minus_dg = yb.Cochain(rack, 2, field, (-yb.coboundary(g).values) % 2)
        off = ~pair_mask(rack, 2, "quasidiagonal")
        assert np.array_equal(got.values, minus_dg.values * off % 2)


ROUND_TRIP_CASES = [
    ("F2[h]/h^4", "quandle3-f"),
    ("F3[h]/h^3", "dihedral4-f"),
    ("Z/2^2", "quandle3-f"),
    ("Z/3^2", "quandle3-f"),
]


def disguised_family_instances(spec, family):
    """Five symmetric family draws, each hidden behind a random gauge."""
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(81)
    for _ in range(5):
        params = yb.random_family_parameters(family, ring, rng, symmetric=True)
        clean = yb.instantiate_family(family, ring, params)
        alpha = random_gauge(ring, clean.rack.size, rng)
        yield clean, yb.TruncatedDeformation(
            rack=clean.rack, ring=ring,
            operator=yb.gauge_conjugate(clean.operator, alpha))


def count_ybe_checks(monkeypatch):
    """Route deformations.check_ybe through a counter; returns the call list."""
    calls = []

    def counting(op):
        calls.append(op)
        return yb.check_ybe(op)

    monkeypatch.setattr(deformations, "check_ybe", counting)
    return calls


@pytest.mark.parametrize("spec,family", ROUND_TRIP_CASES)
def test_quasidiagonalize_round_trip(spec, family):
    ring = yb.parse_ring(spec)
    for clean, disguised in disguised_family_instances(spec, family):
        gauges, final = yb.quasidiagonalize(disguised)
        assert offdiagonal_entry_count(final) == 0
        assert final.check().holds
        back = gauges.unconjugate(final.operator)
        assert ring.mat_eq(back.matrix, disguised.operator.matrix)
        for order, factor in zip(gauges.orders, gauges.factors):
            assert ring.min_valuation(ring.mat_sub(factor, ring.eye(clean.rack.size))) >= order


@pytest.mark.parametrize("spec,family", ROUND_TRIP_CASES)
def test_quasidiagonalize_checks_the_braid_relation_once_per_operator(
        spec, family, monkeypatch):
    # the input, then each conjugated operator; the splits never ask
    calls = count_ybe_checks(monkeypatch)
    for _, disguised in disguised_family_instances(spec, family):
        calls.clear()
        gauges, _ = yb.quasidiagonalize(disguised)
        assert len(calls) == 1 + len(gauges.factors)


@pytest.mark.parametrize("spec,family", ROUND_TRIP_CASES)
def test_unconjugate_undoes_each_factor_in_turn(spec, family):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(88)
    for clean, _ in disguised_family_instances(spec, family):
        gauges = yb.GaugeSequence(ring=ring)
        conjugated = clean.operator
        for order in range(1, ring.order):
            alpha = random_gauge(ring, clean.rack.size, rng)
            conjugated = yb.gauge_conjugate(conjugated, alpha)
            gauges.append(alpha.matrix, order)
        back = gauges.unconjugate(conjugated)
        assert ring.mat_eq(back.matrix, clean.operator.matrix)



@pytest.mark.parametrize("spec", ["F3[h]/h^3", "Z/2^3"])
def test_unconjugate_inverts_the_composite_once(spec, monkeypatch):
    ring = yb.parse_ring(spec)
    rng = np.random.default_rng(90)
    op = yb.rack_operator(yb.catalog.dihedral4(), ring)
    gauges = yb.GaugeSequence(ring=ring)
    conjugated = op
    for order in range(1, ring.order):
        alpha = random_gauge(ring, 4, rng)
        conjugated = yb.gauge_conjugate(conjugated, alpha)
        gauges.append(alpha.matrix, order)
    inversions = []
    real = ring.mat_inv
    monkeypatch.setattr(ring, "mat_inv", lambda mat: inversions.append(mat) or real(mat))
    back = gauges.unconjugate(conjugated)
    assert len(inversions) == 1
    assert ring.mat_eq(back.matrix, op.matrix)


def test_composite_starts_from_a_copy_of_the_first_factor():
    ring = yb.parse_ring("F3[h]/h^3")
    rng = np.random.default_rng(91)
    gauges = yb.GaugeSequence(ring=ring)
    assert ring.mat_eq(gauges.composite(4), ring.eye(4))
    first, second = (random_gauge(ring, 4, rng).matrix for _ in range(2))
    gauges.append(first, 1)
    alone = gauges.composite(4)
    assert ring.mat_eq(alone, first)
    alone[...] = 0
    assert not ring.mat_is_zero(gauges.factors[0])
    gauges.append(second, 2)
    assert ring.mat_eq(gauges.composite(4), ring.mat_mul(first, second))


def test_family_claims_check_the_braid_relation_once(monkeypatch):
    calls = count_ybe_checks(monkeypatch)
    rng = np.random.default_rng(89)
    for name, spec in (("quandle3-f", "F5[h]/h^4"), ("dihedral4-f", "F3[h]/h^4"),
                       ("dihedral4-g", "F2[h]/h^3")):
        ring = yb.parse_ring(spec)
        calls.clear()
        report = yb.check_family_claims(
            name, ring, yb.random_family_parameters(name, ring, rng))
        assert len(calls) == 1
        assert set(report.verdict_by_order) == set(range(1, ring.order + 1))


def test_split_raises_on_a_non_cocycle_of_an_exact_solution(monkeypatch):
    # the braid relation holds exactly, so an extracted part that is not a
    # cocycle marks the input as invalid; the relation is consulted only
    # once the cocycle test has failed
    ring = yb.parse_ring("F5[h]/h^4")
    params = {f"l{i}": ring.lift_digit(i % 5, 1) for i in range(1, 10)}
    defm = yb.instantiate_family("quandle3-f", ring, params)
    assert defm.check().holds
    calls = count_ybe_checks(monkeypatch)
    yb.split_non_quasidiagonal(defm, 1)
    assert calls == []
    monkeypatch.setattr(deformations, "coboundary",
                        lambda f: SimpleNamespace(is_zero=lambda: False))
    with pytest.raises(yb.DeformationError, match="not a cocycle"):
        yb.split_non_quasidiagonal(defm, 1)
    assert len(calls) == 1


def test_quasidiagonalize_of_quasidiagonal_input_is_trivial():
    ring = yb.parse_ring("F5[h]/h^4")
    params = {f"l{i}": ring.lift_digit(i % 5, 1) for i in range(1, 10)}
    defm = yb.instantiate_family("quandle3-f", ring, params)
    gauges, final = yb.quasidiagonalize(defm)
    assert gauges.factors == []
    assert ring.mat_eq(final.operator.matrix, defm.operator.matrix)


def test_quasidiagonalize_rejects_non_solutions():
    ring = yb.parse_ring("F2[h]/h^3")
    rack = yb.catalog.quandle3()
    base = yb.rack_operator(rack, ring)
    bad_term = ring.lift_digit_matrix(
        np.eye(9, dtype=np.int64)[:, ::-1], 1)  # arbitrary junk
    operator = yb.deform(base, bad_term)
    defm = yb.TruncatedDeformation(rack=rack, ring=ring, operator=operator)
    if not yb.check_ybe(operator).holds:
        with pytest.raises(yb.YBEFailure) as err:
            yb.quasidiagonalize(defm)
        assert err.value.order is not None


def test_rigidity_of_dihedral3():
    for p in (2, 3, 5):
        report = yb.rigidity_check(yb.catalog.dihedral3(), yb.PrimeField(p))
        assert report.rigid and report.dimension == 1
        assert report.identity_is_cocycle and report.identity_nontrivial


def test_quandle3_is_not_rigid():
    report = yb.rigidity_check(yb.catalog.quandle3(), F2)
    assert not report.rigid and report.dimension == 9


@pytest.mark.parametrize("spec", ["F2", "F3", "F5", "Q"])
@pytest.mark.parametrize("name,dimension", [("dihedral3", 1), ("quandle3", 9)])
def test_rigidity_check_eliminates_d1_once(monkeypatch, name, dimension, spec):
    calls = []
    real = linalg._reduced_form

    def counting(mat):
        calls.append((mat.rows, mat.cols))
        return real(mat)
    monkeypatch.setattr(linalg, "_reduced_form", counting)
    report = yb.rigidity_check(getattr(yb.catalog, name)(), yb.parse_ring(spec))
    assert (report.dimension, report.identity_is_cocycle, report.identity_nontrivial) == \
        (dimension, True, True)
    assert report.rigid == (dimension == 1)
    q = report.rack.size
    assert calls == [(q**4, q**2 + 1), (q**6, q**4)]  # [d^1 | identity], then d^2


def test_family_reports_quandle3():
    ring = yb.parse_ring("F5[h]/h^4")
    rng = np.random.default_rng(82)
    for _ in range(5):
        params = yb.random_family_parameters("quandle3-f", ring, rng)
        report = yb.check_family_claims("quandle3-f", ring, params)
        assert report.exact and report.claim_holds


def test_family_reports_dihedral4_f_both_directions():
    rng = np.random.default_rng(83)
    for spec in ("F2[h]/h^3", "F3[h]/h^4"):
        ring = yb.parse_ring(spec)
        for _ in range(3):
            params = yb.random_family_parameters("dihedral4-f", ring, rng, symmetric=True)
            report = yb.check_family_claims("dihedral4-f", ring, params)
            assert report.symmetric and report.exact and report.claim_holds
        for _ in range(3):
            params = asymmetric_f_params(ring, rng)
            report = yb.check_family_claims("dihedral4-f", ring, params)
            assert not report.symmetric
            assert report.verdict_by_order[2]  # infinitesimal solution regardless
            assert not report.exact            # generic draw fails at order two
            assert report.claim_holds


def test_family_reports_dihedral4_g_both_directions():
    ring = yb.parse_ring("F2[h]/h^3")
    rng = np.random.default_rng(84)
    # the quoted special case: alpha' = h, everything else zero
    params = {k: ring.zero() for k in G_NAMES}
    params["ap"] = ring.lift_digit(1, 1)
    defm = yb.instantiate_family("dihedral4-g", ring, params)
    verdict = yb.check_ybe(defm.operator)
    assert verdict.holds_mod(2)
    assert not verdict.holds_mod(3)
    assert verdict.failure_order == 2
    for _ in range(3):
        params = yb.random_family_parameters("dihedral4-g", ring, rng, symmetric=True)
        report = yb.check_family_claims("dihedral4-g", ring, params)
        assert report.verdict_by_order[2] and report.verdict_by_order[3]
        assert report.claim_holds
    for _ in range(3):
        params = asymmetric_g_params(ring, rng)
        report = yb.check_family_claims("dihedral4-g", ring, params)
        assert report.verdict_by_order[2] and not report.verdict_by_order[3]
        assert report.claim_holds


def test_family_g_rejects_odd_characteristic():
    ring = yb.parse_ring("F3[h]/h^3")
    with pytest.raises(ValueError):
        yb.check_family_claims("dihedral4-g", ring, {})


def test_family_parameters_must_sit_in_the_ideal():
    ring = yb.parse_ring("F2[h]/h^2")
    params = {name: ring.one() for name in Q3_NAMES}
    with pytest.raises(ValueError):
        yb.instantiate_family("quandle3-f", ring, params)


def _pattern_cochain(rack, pattern, values, ring):
    side = rack.size ** 2
    grid = np.zeros((side, side), dtype=np.int64)
    for (r, c), nm in pattern.items():
        grid[c, r] = values[nm] % ring.p
    return yb.Cochain(rack, 2, ring, grid)


def test_first_order_gauge_classes_dihedral4():
    # instances are gauge equivalent at first order iff the symmetrised
    # parameter vectors coincide; equivalence is decided by an exact solve
    rack = yb.catalog.dihedral4()
    d1 = yb.coboundary_matrix(rack, F2, 1)
    rng = np.random.default_rng(85)

    def symmetrised(vals):
        out = {n: vals[n] % 2 for n in F_NAMES if not n.endswith(("p", "pp"))}
        for nm in ("l5", "l7", "l9", "l11"):
            out[nm] = (vals[nm + "p"] + vals[nm + "pp"]) % 2
        return out

    agreements = 0
    for _ in range(40):
        v1 = {nm: int(rng.integers(2)) for nm in F_NAMES}
        v2 = {nm: int(rng.integers(2)) for nm in F_NAMES}
        f1 = _pattern_cochain(rack, DIHEDRAL4_F, v1, F2)
        f2 = _pattern_cochain(rack, DIHEDRAL4_F, v2, F2)
        solvable = linalg.solve(d1, cochain_to_vector(csub(f1, f2))) is not None
        agreements += (solvable == (symmetrised(v1) == symmetrised(v2)))
    assert agreements == 40
    # swapping a primed pair leaves the class unchanged
    v1 = {nm: int(rng.integers(2)) for nm in F_NAMES}
    v2 = dict(v1); v2["l5p"], v2["l5pp"] = v1["l5pp"], v1["l5p"]
    f1 = _pattern_cochain(rack, DIHEDRAL4_F, v1, F2)
    f2 = _pattern_cochain(rack, DIHEDRAL4_F, v2, F2)
    assert linalg.solve(d1, cochain_to_vector(csub(f1, f2))) is not None


def test_first_order_gauge_classes_quandle3():
    # over a field where two is invertible the nine parameters are faithful
    # gauge coordinates (over F2 the l5/l6 classes degenerate)
    rack = yb.catalog.quandle3()
    for p in (3, 5):
        ring = yb.PrimeField(p)
        d1 = yb.coboundary_matrix(rack, ring, 1)
        rng = np.random.default_rng(86 + p)
        for _ in range(30):
            v1 = {nm: int(rng.integers(p)) for nm in Q3_NAMES}
            v2 = {nm: int(rng.integers(p)) for nm in Q3_NAMES}
            f1 = _pattern_cochain(rack, QUANDLE3_F, v1, ring)
            f2 = _pattern_cochain(rack, QUANDLE3_F, v2, ring)
            solvable = linalg.solve(d1, cochain_to_vector(csub(f1, f2))) is not None
            assert solvable == (v1 == v2)


def test_family_parameter_file_round_trip():
    ring = yb.parse_ring("F3[h]/h^3")
    rng = np.random.default_rng(87)
    params = yb.random_family_parameters("quandle3-f", ring, rng)
    text = yb.dump_family_parameters("quandle3-f", ring, params)
    assert text.splitlines()[0] == "quandle3-f"
    name, back = yb.load_family_parameters(text, ring)
    assert name == "quandle3-f" and back == params
    with pytest.raises(KeyError):
        yb.load_family_parameters("unknown-family\n", ring)


def test_quasidiagonalize_faithful_rack_lands_on_the_diagonal():
    # behaviourally distinct elements: quasi-diagonal means diagonal
    ring = yb.parse_ring("F3[h]/h^3")
    rack = yb.catalog.dihedral3()
    rng = np.random.default_rng(19)
    base = yb.rack_operator(rack, ring)
    unit = ring.mat_add(ring.eye(9), ring.lift_digit_matrix(
        2 * np.eye(9, dtype=np.int64), 1))
    scalar_op = yb.YBOperator(ring=ring, dim=3,
                              matrix=ring.mat_mul(base.matrix, unit), rack=rack)
    pert = ring.mat_add(ring.eye(3),
                        ring.lift_digit_matrix(rng.integers(0, 3, size=(3, 3)), 1))
    disguised = yb.TruncatedDeformation(
        rack=rack, ring=ring,
        operator=yb.gauge_conjugate(scalar_op, yb.GaugeTransform(ring, pert)))
    gauges, final = yb.quasidiagonalize(disguised)
    term = final.term_offset()
    off_diagonal = ~pair_mask(rack, 2, "diagonal")
    junk = sum(int(np.count_nonzero(ring.digit_matrix(term, k).T * off_diagonal))
               for k in range(ring.order))
    assert junk == 0
    assert final.check().holds
    assert ring.mat_eq(gauges.unconjugate(final.operator).matrix,
                       disguised.operator.matrix)


def test_quasidiagonalize_trivial_rack_is_a_no_op():
    # over a square-zero ideal every deformation of the transposition is a
    # solution, and every cochain is quasi-diagonal, so nothing happens
    ring = yb.parse_ring("F3[h]/h^2")
    rack = yb.trivial_rack(3)
    rng = np.random.default_rng(23)
    base = yb.rack_operator(rack, ring)
    term = ring.lift_digit_matrix(rng.integers(0, 3, size=(9, 9)), 1)
    op = yb.deform(base, term)
    assert yb.check_ybe(op).holds
    defm = yb.TruncatedDeformation(rack=rack, ring=ring, operator=op)
    gauges, final = yb.quasidiagonalize(defm)
    assert gauges.factors == []
    assert ring.mat_eq(final.operator.matrix, op.matrix)
