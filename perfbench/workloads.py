"""The benchmark's three workloads.

``build(yb, name, seed)`` returns a :class:`Workload`: the list of operations
one pass runs, in order, plus the time the set-up spent constructing racks.
An operation is one dimension query, one identity check or one round trip;
it runs the library and returns its answer in a JSON-able form, which the
harness compares with ``Op.expect``.

Library functions are always looked up as module attributes at call time
(``yb.cochains.cohomology_dim``), never bound at import, so that the traced
run's wrappers see every call the benchmark makes.

Inputs come from the seed:

* ``cohomology`` takes no random input.
* ``cochain_identities`` draws its cochains and chains from the seed; every
  answer is an exact identity, so the expected answer is always ``True``.
* ``gauge`` runs a fixed set of instances per configuration: instance ``i``
  of configuration ``c`` is generated from ``(GAUGE_SALT, c, i)`` alone, and
  the seed decides only the order a pass runs them in.  An instance's cost
  depends on its draw (up to 2x within one configuration), so a seed-chosen
  set would move ``wall_s`` and ``op_p50_ms`` from seed to seed by more than
  run-to-run noise does.  The expected table holds a digest of every instance's gauge factors
  and final operator, so a change that alters a gauge sequence fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "ybrack" / "data"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("cohomology", "cochain_identities", "gauge")

FIELD_NAMES = ("F2", "F3", "F5", "Q")
FIXTURES = ("trivial4", "quandle3", "dihedral3", "dihedral4")

GAUGE_SALT = 20080808
# (family, ring spec, instances per pass)
ROUND_TRIPS = (
    ("quandle3-f", "F2[h]/h^4", 28), ("dihedral4-f", "F2[h]/h^4", 4),
    ("quandle3-f", "F3[h]/h^3", 12), ("dihedral4-f", "F3[h]/h^3", 4),
    ("quandle3-f", "F5[h]/h^6", 12), ("dihedral4-f", "F5[h]/h^6", 4),
    ("quandle3-f", "Z/2^2", 12), ("dihedral4-f", "Z/2^2", 4),
    ("quandle3-f", "Z/3^2", 12), ("dihedral4-f", "Z/3^2", 4),
)
# (family, ring spec, draw, instances per pass); "asymmetric" draws must fail
# the braid relation at the order the family's claim states
FAMILY_CLAIMS = (
    ("quandle3-f", "F5[h]/h^4", "random", 8),
    ("dihedral4-f", "F3[h]/h^4", "symmetric", 4),
    ("dihedral4-f", "F3[h]/h^4", "asymmetric", 4),
    ("dihedral4-g", "F2[h]/h^3", "symmetric", 4),
    ("dihedral4-g", "F2[h]/h^3", "asymmetric", 4),
)
# (rack file, ring spec, instances per pass) for ``ybrack quasidiagonalize``
CLI_ROUND_TRIPS = (("quandle3.rack", "F2[h]/h^4", 2), ("dihedral4.rack", "Z/3^2", 2))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    expect: object


@dataclass
class Workload:
    ops: list
    racks_s: float  # set-up time spent constructing racks


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(*parts) -> str:
    """Short sha256 over arrays (dtype, shape and bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


def _fields(yb) -> dict:
    return {"F2": yb.rings.PrimeField(2), "F3": yb.rings.PrimeField(3),
            "F5": yb.rings.PrimeField(5), "Q": yb.rings.Rationals()}


def _build_racks(yb, names) -> tuple[dict, float]:
    started = time.perf_counter()
    racks = {}
    for name in names:
        if name == "dihedral5":
            racks[name] = yb.racks.dihedral_quandle(5)
        else:
            racks[name] = getattr(yb.catalog, name)()
    return racks, time.perf_counter() - started


def _cli(yb, argv) -> dict:
    """Run ``ybrack <argv>`` in process; the answer is the exit code and a
    digest of the printed report without its timing line.  The report echoes
    the rack file's path, so the data directory is replaced by a fixed token
    before hashing: the digest must not depend on where the checkout lives."""
    out = io.StringIO()
    cli = importlib.import_module(f"{yb.__name__}.cli")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    lines = [ln.replace(str(DATA), "<data>") for ln in out.getvalue().splitlines()
             if not ln.startswith("elapsed:")]
    answer = {"exit": code, "report": digest(lines)}
    key = {"cohomology": "dimension", "examples": "checks_passed"}.get(argv[0])
    for line in lines:
        if key and line.strip().startswith(key + ":"):
            answer[key] = int(line.split(":")[1])
    return answer


# -- cohomology ----------------------------------------------------------------

def cohomology_queries() -> list:
    """(name, kind, rack, field, degree, complex) for every dimension query."""
    out = []
    for rack in FIXTURES + ("dihedral5",):
        for fld in FIELD_NAMES:
            for sub in ("full", "quasidiagonal"):
                out.append((f"H2/{sub}/{rack}/{fld}", "H", rack, fld, 2, sub))
    for rack in ("quandle3", "dihedral3", "dihedral4", "dihedral5"):
        for fld in FIELD_NAMES:
            out.append((f"H3/quasidiagonal/{rack}/{fld}", "H", rack, fld, 3, "quasidiagonal"))
    for rack in ("quandle3", "dihedral3"):
        for fld in FIELD_NAMES:
            out.append((f"H3/full/{rack}/{fld}", "H", rack, fld, 3, "full"))
    for rack in ("dihedral3", "quandle3"):
        for fld in FIELD_NAMES:
            for degree in (2, 3):
                out.append((f"rackH{degree}/{rack}/{fld}", "rack", rack, fld, degree, None))
            out.append((f"rigidity/{rack}/{fld}", "rigidity", rack, fld, 2, None))
    return out


COHOMOLOGY_CLI = (
    ("cli/examples", ["examples", "--seed", "0"]),
    ("cli/cohomology/dihedral3/H3/F3/yb", ["cohomology", "dihedral3.rack", "--degree", "3",
                                            "--char", "3", "--complex", "yb"]),
    ("cli/cohomology/dihedral4/H2/Q/yb", ["cohomology", "dihedral4.rack", "--degree", "2",
                                          "--char", "0", "--complex", "yb"]),
    ("cli/cohomology/dihedral4/H3/F2/quasidiag", ["cohomology", "dihedral4.rack", "--degree", "3",
                                                  "--char", "2", "--complex", "quasidiag"]),
    ("cli/cohomology/trivial4/H2/F5/diag", ["cohomology", "trivial4.rack", "--degree", "2",
                                            "--char", "5", "--complex", "diag"]),
)


def _cli_argv(argv) -> list:
    return [str(DATA / a) if a.endswith(".rack") else a for a in argv]


def _dimension_op(yb, name, kind, rack, ring, degree, sub, expect) -> Op:
    if kind == "H":
        run = lambda: yb.cochains.cohomology_dim(rack, ring, degree, sub)
    elif kind == "rack":
        run = lambda: yb.cochains.rack_cohomology_dim(rack, ring, degree)
    else:
        def run():
            report = yb.deformations.rigidity_check(rack, ring)
            return {"dimension": report.dimension, "rigid": report.rigid}
    return Op(name, run, expect)


def build_cohomology(yb, expected) -> Workload:
    racks, racks_s = _build_racks(yb, FIXTURES + ("dihedral5",))
    fields = _fields(yb)
    ops = [_dimension_op(yb, name, kind, racks[rack], fields[fld], degree, sub,
                         expected.get(name))
           for name, kind, rack, fld, degree, sub in cohomology_queries()]
    for name, argv in COHOMOLOGY_CLI:
        argv = _cli_argv(argv)
        ops.append(Op(name, lambda argv=argv: _cli(yb, argv), expected.get(name)))
    return Workload(ops, racks_s)


# -- cochain identities ------------------------------------------------------------

def _random_grid(rack, degree, ring, rng, level=0, class_coords=None):
    """Random values, quasi-diagonal in the last ``level`` positions; integers
    in [-9, 9] over Q, residues otherwise."""
    side = rack.size**degree
    p = getattr(ring, "p", None)
    values = rng.integers(0, p, size=(side, side)) if p else \
        rng.integers(-9, 10, size=(side, side))
    if level:
        mask = np.ones((side, side), dtype=bool)
        for j in range(degree - level, degree):
            mask &= np.equal.outer(class_coords[j], class_coords[j])
        values = values * mask
    return values


def _same(a, b) -> bool:
    return bool(np.array_equal(a.values, b.values))


def build_cochain_identities(yb, seed) -> Workload:
    racks, racks_s = _build_racks(yb, FIXTURES)
    fields = _fields(yb)
    rng = np.random.default_rng([seed, 7])
    ops = []
    for rack_name in FIXTURES:
        rack = racks[rack_name]
        class_coords = {n: yb.indexing.class_coordinates(rack, n) for n in (1, 2, 3)}
        for fld in FIELD_NAMES:
            ops += _identity_ops(yb, rack, fields[fld], f"{rack_name}/{fld}", class_coords, rng)
    return Workload(ops, racks_s)


def _identity_ops(yb, rack, ring, tag, class_coords, rng) -> list:
    """The identity checks on one rack and field, one operation per identity."""
    Cochain, Chain = yb.cochains.Cochain, yb.chains.Chain
    mod = getattr(ring, "p", None)
    checks: dict[str, list] = {}

    def cochain(n, level=0):
        return Cochain(rack, n, ring, _random_grid(rack, n, ring, rng, level, class_coords[n]))

    for n in (1, 2, 3):
        f = cochain(n)
        checks.setdefault("dd", []).append(lambda f=f: yb.cochains.coboundary(
            yb.cochains.coboundary(f)).is_zero())
        g = cochain(n)

        def commute(g=g, n=n):
            pc = yb.cochains.partial_coboundary
            lower = [pc(g, i) for i in range(n + 1)]
            return all(_same(pc(lower[j], i), pc(lower[i], j + 1))
                       for j in range(n + 1) for i in range(j + 1))
        checks.setdefault("commute", []).append(commute)
    for n in (2, 3):
        c = Chain(rack, n, ring, _random_grid(rack, n, ring, rng))
        checks.setdefault("bb", []).append(lambda c=c: yb.chains.boundary(
            yb.chains.boundary(c)).is_zero())
        c2 = Chain(rack, n, ring, _random_grid(rack, n, ring, rng))
        g = cochain(n - 1)

        def adjoint(c=c2, g=g):
            ch, co = yb.chains, yb.cochains
            return ch.pairing(ch.boundary(c), g) == ch.pairing(c, co.coboundary(g))
        checks.setdefault("adjoint", []).append(adjoint)
    for n, m in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        f = cochain(n, m)
        k = n - m
        stripe = ~np.equal.outer(class_coords[n][k - 1], class_coords[n][k - 1])

        def defect(f=f, m=m, k=k, stripe=stripe):
            # t = d(s f) - s(d f), and t is (-1)^k f on the tested stripe
            h, co = yb.homotopy, yb.cochains
            t = h.homotopy_defect(f, m)
            parts = co.sub(co.coboundary(h.insertion_homotopy(f, m)),
                           h.insertion_homotopy(co.coboundary(f), m))
            want = (-1) ** k * f.values
            want = want % mod if mod else want
            return _same(t, parts) and bool(np.array_equal(t.values[stripe], want[stripe]))
        checks.setdefault("defect", []).append(defect)
        f2 = cochain(n, m)

        def advance(f=f2, m=m):
            h = yb.homotopy
            return h.filtration_level(h.level_projection(f, m)) >= m + 1
        checks.setdefault("advance", []).append(advance)
    for n in (2, 3):
        # a cocycle: the coboundary of a random cochain, plus the identity
        # cocycle in degree 2
        h = cochain(n - 1)

        def representative(h=h, n=n):
            co = yb.cochains
            f = co.coboundary(h)
            if n == 2:
                f = co.add(f, co.identity_cochain(f.rack, 2, f.ring))
            rep, g = yb.homotopy.quasidiagonal_representative(f)
            back = co.add(f, co.coboundary(g))
            return (rep.is_quasidiagonal() and co.coboundary(rep).is_zero()
                    and _same(rep, back))
        checks.setdefault("representative", []).append(representative)
    # one operation per identity: its check on every degree, in order
    return [Op(f"{kind}/{tag}", lambda fns=fns: [bool(fn()) for fn in fns], [True] * len(fns))
            for kind, fns in checks.items()]


# -- gauge -----------------------------------------------------------------------

def gauge_configs() -> list:
    """(config key, kind, family or rack file, ring spec, draw, per pass)."""
    out = []
    for family, spec, count in ROUND_TRIPS:
        out.append((f"round_trip/{family}/{spec}", "round_trip", family, spec, "symmetric", count))
    for family, spec, draw, count in FAMILY_CLAIMS:
        out.append((f"claims/{family}/{spec}/{draw}", "claims", family, spec, draw, count))
    for rack_file, spec, count in CLI_ROUND_TRIPS:
        out.append((f"cli/quasidiagonalize/{rack_file}/{spec}", "cli", rack_file, spec, None, count))
    return out


def _asymmetric_params(yb, family, ring, rng) -> dict:
    """A generic violating draw.  For dihedral4-f: one primed pair split at
    order one, its trigger parameter a unit at order one and everything else
    neutral, so the order-two obstruction is a single nonzero bilinear term.
    For dihedral4-g: a random draw with one pair forced apart at order one."""
    if family == "dihedral4-g":
        params = yb.deformations.random_family_parameters(family, ring, rng)
        pair = ("a", "b", "g", "d")[int(rng.integers(4))]
        params[pair + "pp"] = ring.add(params[pair + "p"], ring.lift_digit(1, 1))
        return params
    triggers = {"l5": "l6", "l7": "l6", "l9": "l10", "l11": "l10"}
    neutral = {"l5": ["l1", "l8", "l13", "l14", "l15", "l16"],
               "l7": ["l1", "l8", "l13", "l14", "l15", "l16"],
               "l9": ["l1", "l2", "l3", "l4", "l12", "l13"],
               "l11": ["l1", "l2", "l3", "l4", "l12", "l13"]}
    names = sorted(set(yb.catalog.DIHEDRAL4_F.values()))
    pair = ("l5", "l7", "l9", "l11")[int(rng.integers(4))]
    params = {name: ring.zero() for name in names}
    unit = lambda: int(rng.integers(1, ring.p)) if ring.p > 2 else 1
    params[pair + "p"] = ring.lift_digit(unit(), 1)
    params[triggers[pair]] = ring.lift_digit(unit(), 1)
    for name in neutral[pair]:
        params[name] = ring.lift_digit(int(rng.integers(ring.p)), 1)
    return params


def _round_trip(yb, family, ring, params, perturbation):
    d, ops = yb.deformations, yb.operators
    clean = d.instantiate_family(family, ring, params)
    dim = clean.rack.size
    alpha = ops.GaugeTransform(ring, ring.mat_add(ring.eye(dim), perturbation))
    disguised = d.TruncatedDeformation(rack=clean.rack, ring=ring,
                                       operator=ops.gauge_conjugate(clean.operator, alpha))
    gauges, final = d.quasidiagonalize(disguised)
    back = gauges.unconjugate(final.operator)
    if not ring.mat_eq(back.matrix, disguised.operator.matrix):
        return "round trip is not exact"
    offdiag = ~yb.indexing.pair_mask(final.rack, 2, "quasidiagonal")
    term = final.term_offset()
    if any(np.any(ring.digit_matrix(term, k).T * offdiag) for k in range(ring.order)):
        return "output is not quasi-diagonal"
    return digest(gauges.orders, *[np.asarray(f) for f in gauges.factors],
                  np.asarray(final.operator.matrix))


def _claims(yb, family, ring, params):
    report = yb.deformations.check_family_claims(family, ring, params)
    return {"verdicts": [bool(report.verdict_by_order[k]) for k in sorted(report.verdict_by_order)],
            "exact": bool(report.exact), "symmetric": bool(report.symmetric),
            "claim_holds": bool(report.claim_holds)}


def gauge_instance(yb, config, index) -> Op:
    """Instance ``index`` of ``config``; independent of the run seed."""
    key, kind, subject, spec, draw, _ = config
    position = [c[0] for c in gauge_configs()].index(key)
    rng = np.random.default_rng([GAUGE_SALT, position, index])
    name = f"{key}/{index}"
    if kind == "cli":
        argv = ["quasidiagonalize", str(DATA / subject), "--ring", spec,
                "--perturb", str(int(rng.integers(2**31)))]
        return Op(name, lambda: _cli(yb, argv), None)
    ring = yb.rings.parse_ring(spec)
    d = yb.deformations
    if draw == "asymmetric":
        params = _asymmetric_params(yb, subject, ring, rng)
    else:
        params = d.random_family_parameters(subject, ring, rng, symmetric=draw == "symmetric")
    if kind == "claims":
        return Op(name, lambda: _claims(yb, subject, ring, params), None)
    dim = yb.catalog.FAMILIES[subject][0]().size
    perturbation = ring.zeros(dim, dim)
    for k in range(1, ring.order):
        perturbation = ring.mat_add(perturbation, ring.lift_digit_matrix(
            rng.integers(0, ring.p, size=(dim, dim)), k))
    return Op(name, lambda: _round_trip(yb, subject, ring, params, perturbation), None)


def build_gauge(yb, seed, expected) -> Workload:
    _, racks_s = _build_racks(yb, ("quandle3", "dihedral4"))
    rng = np.random.default_rng([seed, 9])
    ops = []
    for config in gauge_configs():
        for index in range(config[-1]):
            op = gauge_instance(yb, config, index)
            op.expect = expected.get(op.name)
            ops.append(op)
    # interleave the configurations, so the operations that set the median
    # and the tail spread over the whole pass rather than one stretch of it
    return Workload([ops[i] for i in rng.permutation(len(ops))], racks_s)


def build(yb, name: str, seed: int, expected: dict | None = None) -> Workload:
    expected = load_expected() if expected is None else expected
    if name == "cohomology":
        return build_cohomology(yb, expected.get("cohomology", {}))
    if name == "cochain_identities":
        return build_cochain_identities(yb, seed)
    if name == "gauge":
        return build_gauge(yb, seed, expected.get("gauge", {}))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
