"""Command-line surface.

Four subcommands: ``validate`` (rack files), ``cohomology`` (exact dimension
of a chosen complex), ``examples`` (the full example battery with a
pass/fail table), and ``quasidiagonalize`` (run the gauge engine on a
deformation, emitting the gauge sequence and final term in dump format).

Exit codes: 0 success, 1 mathematical failure (with a witness), 2 usage or
I/O problems.  Reports are printed as text; ``--json-out`` writes the same
numbers as a machine-readable sidecar.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice

import numpy as np

from . import catalog, linalg
from .cochains import cohomology_dim
from .deformations import (TruncatedDeformation, YBEFailure, check_family_claims,
                           instantiate_family, off_quasidiagonal_counts, quasidiagonalize,
                           random_family_parameters, rigidity_check)
from .indexing import pair_numberings
from .operators import (GaugeTransform, check_ybe, deform, dump_operator,
                        gauge_conjugate, load_operator, rack_operator)
from .racks import RackAxiomError, behavior_partition, inner_group, load_rack
from .rings import PrimeField, Rationals, parse_ring

MATH_FAILURE = 1
USAGE_FAILURE = 2


@dataclass
class RunReport:
    command: str
    rack_summary: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    ok: bool = True
    elapsed_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "rack": self.rack_summary,
            "results": self.results,
            "ok": self.ok,
            "elapsed_seconds": self.elapsed_seconds,
        }
        return json.dumps(payload, indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.rack_summary:
            lines.append("rack:")
            for key, value in self.rack_summary.items():
                lines.append(f"  {key}: {value}")
        lines.append("results:")
        lines.extend(_render(self.results, indent=2))
        lines.append(f"status: {'ok' if self.ok else 'FAILED'}")
        lines.append(f"elapsed: {self.elapsed_seconds:.3f}s")
        return "\n".join(lines)


def _render(obj, indent=0):
    pad = " " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render(value, indent + 2))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.extend(_render(value, indent))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _rack_summary(rack) -> dict:
    part = behavior_partition(rack)
    return {
        "size": rack.size,
        "quandle": rack.quandle,
        "inner_group_order": inner_group(rack).order,
        "behavior_classes": [list(c) for c in part.classes],
        "faithful": part.faithful,
    }


def _finish(report: RunReport, started: float, json_out: str | None) -> None:
    report.elapsed_seconds = time.perf_counter() - started
    print(report.to_text())
    if json_out:
        with open(json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")


def _load_rack_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return load_rack(handle.read())


def cmd_validate(args) -> int:
    started = time.perf_counter()
    report = RunReport(command=f"validate {args.path}")
    try:
        rack = _load_rack_file(args.path)
    except RackAxiomError as err:
        report.ok = False
        report.results = {"axiom": err.axiom, "witness": str(err.witness),
                          "error": str(err)}
        _finish(report, started, args.json_out)
        return MATH_FAILURE
    report.rack_summary = _rack_summary(rack)
    report.results = {"valid": True}
    _finish(report, started, args.json_out)
    return 0


def _field_for_char(char: int):
    return Rationals() if char == 0 else PrimeField(char)


def cmd_cohomology(args) -> int:
    started = time.perf_counter()
    report = RunReport(
        command=f"cohomology {args.path} --degree {args.degree} "
                f"--char {args.char} --complex {args.complex}")
    rack = _load_rack_file(args.path)
    ring = _field_for_char(args.char)
    report.rack_summary = _rack_summary(rack)
    subcomplex = {"yb": "full", "diag": "diagonal", "quasidiag": "quasidiagonal"}[args.complex]
    dim = cohomology_dim(rack, ring, args.degree, subcomplex=subcomplex)
    report.results = {"degree": args.degree, "characteristic": args.char,
                      "complex": args.complex, "dimension": dim}
    if subcomplex == "quasidiagonal":  # pairs of coordinates in one behaviour class
        full_size = rack.size ** (2 * args.degree)
        reduced = int(next(islice(pair_numberings(rack, subcomplex), args.degree, None))[1][-1])
        report.results["basis_size_full"] = full_size
        report.results["basis_size_quasidiagonal"] = reduced
        report.results["basis_reduction"] = f"{full_size} -> {reduced}"
    _finish(report, started, args.json_out)
    return 0


def _load_golden(name: str) -> linalg.ExactMatrix:
    text = resources.files("ybrack.data").joinpath(f"golden/{name}").read_text()
    return linalg.load_matrix(text, ring=Rationals())


def _matrix_matches_golden(matrix, rack_name: str) -> dict:
    """Entrywise comparison with the shipped golden asset; reports the first
    differing entry on mismatch."""
    golden = _load_golden(f"{rack_name}_operator.txt")
    built = {pos for pos, _ in golden.nonzero_items()}
    for i in range(golden.rows):
        for j in range(golden.cols):
            got = int(matrix[i, j])
            want = 1 if (i, j) in built else 0
            if got != want:
                return {"match": False, "first_diff": [i, j], "got": got, "want": want}
    return {"match": True}


def _operator_matches_golden(rack_name: str) -> dict:
    rack = catalog.FIXTURE_RACKS[rack_name]()
    op = rack_operator(rack, PrimeField(2))
    return _matrix_matches_golden(op.matrix, rack_name)


def _example_sections(seed: int) -> dict:
    """The example battery: each section's name and the function that builds
    it.  Only ``families`` draws from the seeded generator."""
    return {"operators": _operators_section, "dimensions": _dimensions_section,
            "families": lambda: _families_section(np.random.default_rng(seed)),
            "rigidity": _rigidity_section}


def _operators_section() -> dict:
    return {name: _operator_matches_golden(name) for name in ("dihedral3", "quandle3", "dihedral4")}


def _dimensions_section() -> dict:
    dims = {}

    @functools.cache  # the two tables below share 7 of their dimensions
    def dim_h2(rack_name, char, sub):
        return cohomology_dim(catalog.FIXTURE_RACKS[rack_name](), PrimeField(char), 2,
                              subcomplex=sub)

    expectations = [
        ("quandle3", 2, "yb", 9), ("dihedral4", 2, "yb", 20),
        ("dihedral4", 3, "yb", 16), ("dihedral4", 5, "yb", 16),
        ("dihedral3", 2, "yb", 1), ("dihedral3", 3, "yb", 1),
        ("dihedral3", 5, "yb", 1), ("dihedral3", 5, "diag", 1),
    ]
    for rack_name, char, which, want in expectations:
        got = dim_h2(rack_name, char, {"yb": "full", "diag": "diagonal"}[which])
        dims[f"H2_{which}({rack_name}; F{char})"] = {"got": got, "want": want,
                                                     "match": got == want}
    for rack_name in catalog.FIXTURE_RACKS:
        for char in (2, 3, 5):
            full, quasi = (dim_h2(rack_name, char, sub) for sub in ("full", "quasidiagonal"))
            dims[f"H2_qd=H2_full({rack_name}; F{char})"] = {
                "got": quasi, "want": full, "match": quasi == full}
    return dims


def _families_section(rng) -> dict:
    families = {}
    ring = parse_ring("F5[h]/h^4")
    params = {f"l{i}": ring.lift_digit(i % 5, 1) for i in range(1, 10)}
    rep = check_family_claims("quandle3-f", ring, params)
    families["quandle3-f (lambda_i = i h, F5[h]/h^4)"] = {
        "exact": rep.exact, "match": rep.claim_holds}
    ring = parse_ring("F3[h]/h^5")
    rep = check_family_claims(
        "dihedral4-f", ring, random_family_parameters("dihedral4-f", ring, rng, symmetric=True))
    families["dihedral4-f symmetric (F3[h]/h^5)"] = {"exact": rep.exact, "match": rep.claim_holds}
    ring = parse_ring("F2[h]/h^3")
    params = {k: ring.zero() for k in ("ap", "app", "bp", "bpp", "gp", "gpp", "dp", "dpp")}
    params["ap"] = ring.lift_digit(1, 1)
    verdict = check_ybe(instantiate_family("dihedral4-g", ring, params).operator)
    mod2, mod3 = verdict.holds_mod(2), verdict.holds_mod(3)
    families["dihedral4-g alpha'=h (F2[h]/h^3)"] = {
        "holds_mod_h2": mod2, "holds_mod_h3": mod3, "match": mod2 and not mod3}
    return families


def _rigidity_section() -> dict:
    rigidity = {}
    for char in (2, 3, 5):
        rep = rigidity_check(catalog.dihedral3(), PrimeField(char))
        rigidity[f"dihedral3 F{char}"] = {"rigid": rep.rigid, "dimension": rep.dimension,
                                          "match": rep.rigid}
    rep = rigidity_check(catalog.quandle3(), PrimeField(2))
    rigidity["quandle3 F2"] = {"rigid": rep.rigid, "dimension": rep.dimension,
                               "match": not rep.rigid and rep.dimension == 9}
    return rigidity


def _collect_matches(tree) -> list[bool]:
    out = []
    if isinstance(tree, dict):
        if "match" in tree:
            out.append(bool(tree["match"]))
        for value in tree.values():
            out.extend(_collect_matches(value))
    return out


def cmd_examples(args) -> int:
    started = time.perf_counter()
    report = RunReport(command="examples")
    builders = _example_sections(args.seed)
    if args.only and args.only not in builders:
        print(f"unknown section {args.only!r}; choose from {sorted(builders)}", file=sys.stderr)
        return USAGE_FAILURE
    sections = {name: build() for name, build in builders.items() if args.only in (None, name)}
    matches = _collect_matches(sections)
    report.results = {"sections": sections,
                      "checks_total": len(matches),
                      "checks_passed": sum(matches)}
    report.ok = all(matches)
    _finish(report, started, args.json_out)
    return 0 if report.ok else MATH_FAILURE


def _perturbed_input(rack, ring, seed: int) -> TruncatedDeformation:
    """Oracle input: a scalar (hence quasi-diagonal) deformation of the rack
    operator, hidden behind a seeded random gauge conjugation."""
    rng = np.random.default_rng(seed)
    dim = rack.size
    term = ring.zeros(dim * dim, dim * dim)
    for k in range(1, ring.order):
        coeff = int(rng.integers(0, ring.p))
        term = ring.mat_add(term, ring.lift_digit_matrix(
            coeff * np.eye(dim * dim, dtype=np.int64), k))
    scalar_op = deform(rack_operator(rack, ring), term)
    pert = ring.zeros(dim, dim)
    for k in range(1, ring.order):
        pert = ring.mat_add(pert, ring.lift_digit_matrix(
            rng.integers(0, ring.p, size=(dim, dim)), k))
    alpha = GaugeTransform(ring, ring.mat_add(ring.eye(dim), pert))
    disguised = gauge_conjugate(scalar_op, alpha)
    return TruncatedDeformation(rack=rack, ring=ring, operator=disguised)


def cmd_quasidiagonalize(args) -> int:
    started = time.perf_counter()
    report = RunReport(command=f"quasidiagonalize {args.path} --ring {args.ring}")
    rack = _load_rack_file(args.path)
    ring = parse_ring(args.ring)
    if not ring.is_truncated:
        print("quasidiagonalization needs a truncated ring (F<p>[h]/h^<N> or Z/<p>^<N>)",
              file=sys.stderr)
        return USAGE_FAILURE
    report.rack_summary = _rack_summary(rack)

    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            operator = load_operator(handle.read(), rack=rack)
        if operator.ring != ring:
            print("operator file ring does not match --ring", file=sys.stderr)
            return USAGE_FAILURE
        defm = TruncatedDeformation(rack=rack, ring=ring, operator=operator)
    else:
        defm = _perturbed_input(rack, ring, args.perturb)

    try:
        gauges, final = quasidiagonalize(defm)
    except YBEFailure as err:
        report.ok = False
        report.results = {"error": str(err), "failure_order": err.order,
                          "witness": list(err.witness[:2])}
        _finish(report, started, args.json_out)
        return MATH_FAILURE
    residual = sum(off_quasidiagonal_counts(rack, ring, final.term_offset(), ring.order))
    factors = []
    for order, factor in zip(gauges.orders, gauges.factors):
        mat = linalg.ExactMatrix.from_grid(ring, factor)
        factors.append({"order": order, "matrix": linalg.dump_matrix(mat)})
    report.results = {
        "gauge_factors": factors,
        "final_operator": dump_operator(final.operator),
        "off_quasidiagonal_entries": residual,
        # quasidiagonalize raises YBEFailure unless final passed its braid check
        "ybe_preserved": True,
        "round_trip_exact": ring.mat_eq(
            gauges.unconjugate(final.operator).matrix, defm.operator.matrix),
    }
    report.ok = (residual == 0 and report.results["ybe_preserved"]
                 and report.results["round_trip_exact"])
    _finish(report, started, args.json_out)
    return 0 if report.ok else MATH_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybrack",
        description="exact rack / Yang-Baxter cohomology and deformation tool")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="validate a rack file")
    p.add_argument("path")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="exact cohomology dimension")
    p.add_argument("path")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--char", type=int, default=0,
                   help="coefficient characteristic: 0 for rationals, else a prime")
    p.add_argument("--complex", choices=("yb", "diag", "quasidiag"), default="yb")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("examples", help="run the bundled example battery")
    p.add_argument("--only", default=None,
                   help="restrict to one section (operators, dimensions, families, rigidity)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("quasidiagonalize", help="gauge a deformation to quasi-diagonal form")
    p.add_argument("path", help="rack file")
    p.add_argument("--ring", required=True, help='e.g. "F2[h]/h^4" or "Z/3^2"')
    group = p.add_mutually_exclusive_group()
    group.add_argument("--perturb", type=int, default=0,
                       help="seed for an oracle-constructed input")
    group.add_argument("--input", default=None, help="operator dump file")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_quasidiagonalize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_FAILURE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
