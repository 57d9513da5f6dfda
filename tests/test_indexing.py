"""The key-class layout of ``position_data`` against the longhand oracles."""

import numpy as np
import pytest

import ybrack as yb
from ybrack.indexing import decode_tuple, position_data

import oracles
from conftest import small_rack_sample


def test_every_key_class_is_in_source_order():
    # members[0][k][s] has key k and drop code s; members[1][x][s] has
    # coordinate x at the position and conj code s
    for rack in small_rack_sample():
        q = rack.size
        for length in range(1, 5):
            for j in range(length):
                members = position_data(rack, length, j)
                assert members.shape == (2, q, q ** (length - 1))
                assert members.dtype == np.int64 and not members.flags.writeable
                for summand in members:  # each summand holds every tuple once
                    assert np.array_equal(np.sort(summand, axis=None), np.arange(q**length))
                for (summand, key, slot), code in np.ndenumerate(members):
                    tup = decode_tuple(q, int(code), length)
                    source = decode_tuple(q, slot, length - 1)
                    if summand == 0:
                        assert oracles.act_through(rack, tup[j], tup[j + 1:]) == key
                        assert oracles.drop(tup, j) == source
                    else:
                        assert tup[j] == key
                        assert oracles.conj_prefix(rack, tup, j) == source


@pytest.mark.parametrize("length, position, summand, key",
                         [(2, 0, "drop", 1), (2, 1, "conj", 0), (3, 0, "drop", 1)])
def test_a_table_that_breaks_q2_is_refused_with_a_witness(length, position, summand, key):
    # built without validate: right translation by 0 sends both elements to 0
    rack = yb.racks.RackTable(((0, 0), (0, 0)), False)
    with pytest.raises(yb.RackAxiomError) as caught:
        position_data(rack, length, position)
    assert caught.value.axiom == "Q2"
    assert caught.value.witness == f"position {position}, {summand} summand, key class {key}"
    with pytest.raises(yb.RackAxiomError):
        yb.coboundary(yb.zero_cochain(rack, 1, yb.PrimeField(2)))
