import json
import subprocess
import sys
from pathlib import Path

import pytest

import ybrack as yb
from ybrack.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "ybrack" / "data"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_rack(capsys):
    code, out, _ = run_cli(["validate", str(DATA / "dihedral3.rack")], capsys)
    assert code == 0
    assert "inner_group_order: 6" in out
    assert "faithful: True" in out


def test_validate_trivial_rack(capsys, tmp_path):
    path = tmp_path / "trivial4.rack"
    path.write_text(yb.dump_rack(yb.trivial_rack(4)))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0
    assert "inner_group_order: 1" in out


def test_validate_corrupted_table(capsys, tmp_path):
    path = tmp_path / "broken.rack"
    path.write_text('{"size": 2, "table": [[0, 0], [0, 1]], "quandle": true}\n')
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "Q2" in out


@pytest.mark.parametrize("command", [["validate"], ["cohomology", "--degree", "2"]])
def test_a_rack_file_that_is_not_an_object_exits_2(capsys, tmp_path, command):
    path = tmp_path / "list.rack"
    path.write_text("[1, 2]\n")
    code, _, err = run_cli([command[0], str(path), *command[1:]], capsys)
    assert code == 2 and "'table' is a list of rows" in err


@pytest.mark.parametrize("dump, message", [
    ("F3[h]/h^2\n", "header line 'rows cols modulus'"),
    ("F3[h]/h^2\n2 2 3\n5 5 1,0\n", "'5 5 1,0' lies outside 2x2"),
])
def test_a_malformed_operator_dump_exits_2(capsys, tmp_path, dump, message):
    path = tmp_path / "operator.txt"
    path.write_text(dump)
    code, _, err = run_cli(["quasidiagonalize", str(DATA / "quandle3.rack"),
                            "--ring", "F3[h]/h^2", "--input", str(path)], capsys)
    assert code == 2 and message in err


def test_a_rack_file_with_float_entries_exits_2(capsys, tmp_path):
    path = tmp_path / "floats.rack"
    path.write_text('{"size": 2, "table": [[0.2, 0.9], [1.5, 1.1]], "quandle": true}\n')
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2 and "not integers" in err


def test_an_operator_dump_with_negative_dimensions_exits_2(capsys, tmp_path):
    path = tmp_path / "operator.txt"
    path.write_text("F3[h]/h^2\n-2 -3 3\n")
    code, _, err = run_cli(["quasidiagonalize", str(DATA / "quandle3.rack"),
                            "--ring", "F3[h]/h^2", "--input", str(path)], capsys)
    assert code == 2 and "negative dimensions -2x-3" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(["validate", "/nonexistent/rack"], capsys)
    assert code == 2


def test_cohomology_quandle3(capsys):
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "quandle3.rack"), "--degree", "2",
         "--char", "2", "--complex", "yb"], capsys)
    assert code == 0
    assert "dimension: 9" in out


def test_cohomology_dihedral4_characteristics(capsys):
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "dihedral4.rack"), "--char", "2"], capsys)
    assert code == 0 and "dimension: 20" in out
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "dihedral4.rack"), "--char", "3"], capsys)
    assert code == 0 and "dimension: 16" in out


def test_cohomology_diagonal_complex(capsys):
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "dihedral3.rack"), "--char", "5",
         "--complex", "diag"], capsys)
    assert code == 0 and "dimension: 1" in out


def test_cohomology_quasidiag_reports_reduction(capsys):
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "quandle3.rack"), "--char", "2",
         "--complex", "quasidiag"], capsys)
    assert code == 0
    assert "dimension: 9" in out
    assert "basis_reduction: 81 -> 25" in out


def test_cohomology_refuses_primes_beyond_exact_int64_elimination(capsys):
    code, _, err = run_cli(
        ["cohomology", str(DATA / "quandle3.rack"), "--char", "4294967311"], capsys)
    assert code == 2
    assert "F4294967311" in err and "3037000493" in err


def test_report_sidecar_matches_library_values(capsys, tmp_path):
    sidecar = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "quandle3.rack"), "--char", "2",
         "--json-out", str(sidecar)], capsys)
    assert code == 0
    payload = json.loads(sidecar.read_text())
    lib_value = yb.cohomology_dim(yb.catalog.quandle3(), yb.PrimeField(2), 2)
    assert payload["results"]["dimension"] == lib_value == 9
    assert f"dimension: {payload['results']['dimension']}" in out
    assert payload["rack"]["inner_group_order"] == 2


def test_examples_all_pass(capsys):
    code, out, _ = run_cli(["examples"], capsys)
    assert code == 0
    assert "checks_passed" in out
    assert "FAILED" not in out


def test_examples_rigidity_section(capsys):
    code, out, _ = run_cli(["examples", "--only", "rigidity"], capsys)
    assert code == 0
    assert "dihedral3 F2" in out and "rigid: True" in out


def test_examples_unknown_section(capsys):
    code, _, err = run_cli(["examples", "--only", "nope"], capsys)
    assert code == 2


def test_golden_mismatch_is_detected():
    # negative control: a deliberately transposed operator fails the golden
    # match and the first differing entry is reported
    from ybrack.cli import _matrix_matches_golden
    op = yb.rack_operator(yb.catalog.dihedral3(), yb.PrimeField(2))
    good = _matrix_matches_golden(op.matrix, "dihedral3")
    assert good == {"match": True}
    bad = _matrix_matches_golden(op.matrix.T, "dihedral3")
    assert not bad["match"]
    i, j = bad["first_diff"]
    assert int(op.matrix.T[i, j]) == bad["got"] and bad["got"] != bad["want"]


def test_quasidiagonalize_seeded(capsys):
    code, out, _ = run_cli(
        ["quasidiagonalize", str(DATA / "quandle3.rack"),
         "--ring", "F2[h]/h^4", "--perturb", "42"], capsys)
    assert code == 0
    assert "off_quasidiagonal_entries: 0" in out
    assert "ybe_preserved: True" in out
    assert "round_trip_exact: True" in out


def test_quasidiagonalize_rejects_field_rings(capsys):
    code, _, err = run_cli(
        ["quasidiagonalize", str(DATA / "quandle3.rack"), "--ring", "F2"], capsys)
    assert code == 2


def test_quasidiagonalize_from_operator_file(capsys, tmp_path):
    import numpy as np
    ring = yb.parse_ring("F3[h]/h^3")
    rng = np.random.default_rng(4)
    params = yb.random_family_parameters("quandle3-f", ring, rng)
    defm = yb.instantiate_family("quandle3-f", ring, params)
    pert = ring.mat_add(ring.eye(3), ring.lift_digit_matrix(
        rng.integers(0, 3, size=(3, 3)), 1))
    disguised = yb.gauge_conjugate(defm.operator, yb.GaugeTransform(ring, pert))
    op_file = tmp_path / "operator.txt"
    op_file.write_text(yb.dump_operator(disguised))
    code, out, _ = run_cli(
        ["quasidiagonalize", str(DATA / "quandle3.rack"),
         "--ring", "F3[h]/h^3", "--input", str(op_file)], capsys)
    assert code == 0
    assert "round_trip_exact: True" in out


def test_quasidiagonalize_invalid_operator_reports_ybe_failure(capsys, tmp_path):
    import numpy as np
    ring = yb.parse_ring("F2[h]/h^3")
    rack = yb.catalog.quandle3()
    base = yb.rack_operator(rack, ring)
    junk = ring.lift_digit_matrix(np.eye(9, dtype=np.int64)[:, ::-1], 1)
    operator = yb.deform(base, junk)
    assert not yb.check_ybe(operator).holds
    op_file = tmp_path / "bad.txt"
    op_file.write_text(yb.dump_operator(operator))
    code, out, _ = run_cli(
        ["quasidiagonalize", str(DATA / "quandle3.rack"),
         "--ring", "F2[h]/h^3", "--input", str(op_file)], capsys)
    assert code == 1
    assert "fails the Yang-Baxter equation" in out
    assert "failure_order" in out


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ybrack.cli", "validate", str(DATA / "quandle3.rack")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "inner_group_order: 2" in result.stdout


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "ybrack.cli", "cohomology"],
        capture_output=True, text=True)
    assert result.returncode == 2


def test_cohomology_over_the_rationals(capsys):
    code, out, _ = run_cli(
        ["cohomology", str(DATA / "dihedral4.rack"), "--char", "0"], capsys)
    assert code == 0 and "dimension: 16" in out


def test_reports_are_deterministic_given_seed(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for sidecar in (first, second):
        code, _, _ = run_cli(
            ["quasidiagonalize", str(DATA / "quandle3.rack"),
             "--ring", "F2[h]/h^3", "--perturb", "7",
             "--json-out", str(sidecar)], capsys)
        assert code == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("elapsed_seconds"); b.pop("elapsed_seconds")
    assert a == b


def test_examples_computes_each_dimension_once(capsys, monkeypatch):
    import ybrack.cli as cli
    calls = []

    def counting(rack, ring, degree, subcomplex="full"):
        calls.append((rack, ring, degree, subcomplex))
        return yb.cohomology_dim(rack, ring, degree, subcomplex=subcomplex)

    monkeypatch.setattr(cli, "cohomology_dim", counting)
    code, _, _ = run_cli(["examples", "--only", "dimensions"], capsys)
    assert code == 0
    assert len(calls) == len(set(calls)) == 25


def test_quasidiagonalize_checks_the_braid_relation_once_per_operator(capsys, monkeypatch,
                                                                     tmp_path):
    from ybrack import deformations
    calls = []

    def counting(op):
        calls.append(op)
        return yb.check_ybe(op)

    monkeypatch.setattr(deformations, "check_ybe", counting)
    sidecar = tmp_path / "out.json"
    code, out, _ = run_cli(
        ["quasidiagonalize", str(DATA / "dihedral4.rack"), "--ring", "F3[h]/h^3",
         "--perturb", "5", "--json-out", str(sidecar)], capsys)
    factors = json.loads(sidecar.read_text())["results"]["gauge_factors"]
    assert code == 0 and "ybe_preserved: True" in out
    assert factors and len(calls) == 1 + len(factors)


def test_rings_beyond_int64_exit_2(capsys):
    code, _, err = run_cli(
        ["quasidiagonalize", str(DATA / "quandle3.rack"), "--ring", "Z/3^50"], capsys)
    assert code == 2 and "does not fit in int64" in err
    code, _, err = run_cli(
        ["cohomology", str(DATA / "quandle3.rack"), "--char", str(2**63 + 29)], capsys)
    assert code == 2 and "does not fit in int64" in err
