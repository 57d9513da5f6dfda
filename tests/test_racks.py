import json

import pytest

import ybrack as yb
from conftest import small_rack_sample


def test_dihedral3_from_conjugation_is_a_quandle():
    rack = yb.catalog.dihedral3()
    assert rack.quandle
    assert rack.table == yb.dihedral_quandle(3).table


def test_trivial_rack_is_a_quandle():
    rack = yb.trivial_rack(4)
    assert rack.quandle
    assert all(rack.op(x, y) == x for x in range(4) for y in range(4))


def test_validate_reports_q2_with_witness():
    # column 0 repeats the value 0
    table = [[0, 0, 1], [0, 1, 2], [2, 2, 0]]
    with pytest.raises(yb.RackAxiomError) as err:
        yb.validate(table)
    assert err.value.axiom == "Q2"
    assert err.value.witness == 0


def test_validate_reports_q3_with_witness():
    # Q2 holds (all columns permutations) but self-distributivity fails
    table = [[1, 0, 0], [2, 1, 1], [0, 2, 2]]
    with pytest.raises(yb.RackAxiomError) as err:
        yb.validate(table)
    assert err.value.axiom == "Q3"
    a, b, c = err.value.witness
    rack_op = lambda x, y: table[x][y]
    assert rack_op(rack_op(a, b), c) != rack_op(rack_op(a, c), rack_op(b, c))


def test_validate_quandle_flag():
    rack = yb.validate([[0, 0], [1, 1]])
    assert rack.quandle
    nonquandle = yb.permutation_rack((1, 0))
    assert not nonquandle.quandle
    with pytest.raises(yb.RackAxiomError) as err:
        yb.validate(nonquandle.table, require_quandle=True)
    assert err.value.axiom == "Q1"


def test_inverse_op_dihedral_is_involutory():
    for n in (3, 4, 5):
        rack = yb.dihedral_quandle(n)
        assert yb.inverse_op(rack) == rack.table


def test_inverse_op_trivial():
    rack = yb.trivial_rack(3)
    assert yb.inverse_op(rack) == rack.table


def test_inverse_op_quandle3():
    # every translation is an involution, so the inverse operation coincides
    rack = yb.catalog.quandle3()
    assert yb.inverse_op(rack) == rack.table


def test_inverse_op_round_trip_everywhere():
    for rack in small_rack_sample():
        inv = yb.inverse_op(rack)
        for x in range(rack.size):
            for y in range(rack.size):
                assert rack.op(inv[x][y], y) == x
                assert inv[rack.op(x, y)][y] == x


def test_inner_group_orders():
    assert yb.inner_group(yb.catalog.quandle3()).order == 2
    assert yb.inner_group(yb.catalog.dihedral4()).order == 4
    assert yb.inner_group(yb.catalog.dihedral3()).order == 6
    assert yb.inner_group(yb.trivial_rack(5)).order == 1


def test_inner_group_conjugation_identity():
    # rho(a^phi) = phi^-1 rho(a) phi for every inner phi, on all generators
    from ybrack.racks import _compose, _invert
    for rack in small_rack_sample():
        group = yb.inner_group(rack)
        for a in range(rack.size):
            rho_a = rack.column(a)
            for phi in group.elements:
                conj = _compose(_compose(_invert(phi), rho_a), phi)
                assert conj == rack.column(phi[a])


def test_behavior_partition_examples():
    assert yb.behavior_partition(yb.catalog.dihedral3()).faithful
    part = yb.behavior_partition(yb.trivial_rack(4))
    assert part.classes == ((0, 1, 2, 3),)
    part = yb.behavior_partition(yb.catalog.dihedral4())
    assert part.classes == ((0, 1), (2, 3))


def test_behavior_respects_the_operation():
    # x ~ y implies x * z ~ y * z
    for rack in small_rack_sample():
        part = yb.behavior_partition(rack)
        for cls in part.classes:
            for x in cls:
                for y in cls:
                    for z in range(rack.size):
                        assert part.class_index[rack.op(x, z)] == \
                            part.class_index[rack.op(y, z)]


def test_conjugation_rack_closure_failure():
    transposition = yb.cycles_to_permutation(3, [(1, 2)])
    three_cycle = yb.cycles_to_permutation(3, [(1, 2, 3)])
    with pytest.raises(yb.ClosureError) as err:
        yb.conjugation_rack([transposition, three_cycle])
    assert err.value.witness_pair is not None


def test_conjugation_rack_single_involution():
    rack = yb.conjugation_rack([yb.cycles_to_permutation(2, [(1, 2)])])
    assert rack.size == 1 and rack.quandle


def test_conjugation_rack_outputs_are_quandles():
    for rack in (yb.catalog.dihedral3(), yb.catalog.dihedral4()):
        revalidated = yb.validate(rack.table, require_quandle=True)
        assert revalidated.quandle


def test_orbit_quotient_trivial_rack():
    rack = yb.trivial_rack(3)
    quotient, projection = yb.orbit_quotient(rack)
    assert quotient.size == 3
    assert projection == (0, 1, 2)


def test_orbit_quotient_dihedral3_is_transitive():
    quotient, projection = yb.orbit_quotient(yb.catalog.dihedral3())
    assert quotient.size == 1
    assert projection == (0, 0, 0)


def test_orbit_quotient_quandle3():
    quotient, projection = yb.orbit_quotient(yb.catalog.quandle3())
    assert quotient.size == 2
    assert projection == (0, 0, 1)


def test_orbit_projection_is_a_homomorphism():
    for rack in small_rack_sample():
        quotient, projection = yb.orbit_quotient(rack)
        assert yb.is_rack_homomorphism(rack, quotient, projection)


def test_trivial_extension():
    rack = yb.catalog.dihedral3()
    ext, projection = yb.trivial_extension(rack, 2)
    assert ext.size == 6
    assert yb.is_rack_homomorphism(ext, rack, projection)
    part = yb.behavior_partition(ext)
    # fibres are the behaviour classes
    assert sorted(sorted(c) for c in part.classes) == [[0, 1], [2, 3], [4, 5]]

    same, proj1 = yb.trivial_extension(rack, 1)
    assert same.table == rack.table
    ext_trivial, _ = yb.trivial_extension(yb.trivial_rack(2), 3)
    assert ext_trivial.table == yb.trivial_rack(6).table


def test_rack_file_round_trip(tmp_path):
    rack = yb.catalog.dihedral4()
    text = yb.dump_rack(rack)
    assert yb.load_rack(text).table == rack.table
    bad = text.replace('"quandle": true', '"quandle": false')
    with pytest.raises(ValueError):
        yb.load_rack(bad)


def test_sample_racks_all_validate():
    racks = small_rack_sample()
    assert len(racks) >= 20
    for rack in racks:
        yb.validate(rack.table)  # revalidation never raises


@pytest.mark.parametrize("table", [[[0.2, 0.9], [1.5, 1.1]], [[0.0, 1.0], [0.0, 1.0]],
                                   [[False, False], [True, True]]])
def test_rack_files_with_entries_that_are_not_integers_are_refused(table):
    text = json.dumps({"size": 2, "table": table, "quandle": True})
    with pytest.raises(ValueError, match="not integers"):
        yb.load_rack(text)
