"""Complete deformations over truncated rings and their quasi-diagonalisation.

A deformation of a rack operator over a truncated local ring is written
c = c_Q . F with F congruent to the identity modulo the maximal ideal.  The
engine removes the non-quasi-diagonal part of F one ideal power at a time:
the order-k coefficient of the offending entries is a residue-field
2-cocycle (when the braid relation holds one order further), the homotopy
retraction turns it into a quasi-diagonal representative plus an explicit
degree-1 correction g, and conjugating by id + lift(g) clears order k
without touching lower orders.  The emitted gauge factors multiply to a
single equivalence transformation back to the input.

The engine only claims existence of the quasi-diagonal form, not
uniqueness: each conjugation may (and usually does) also move the
quasi-diagonal part around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .catalog import FAMILIES, family_parameters
from .cochains import (Cochain, cochain_to_vector, coboundary, coboundary_matrix,
                       identity_cochain, pair_mask)
from .homotopy import quasidiagonal_representative
from .operators import (GaugeTransform, YBOperator, check_ybe, deform,
                        deformation_term, gauge_conjugate, rack_operator,
                        _conjugate, _rack_grid)
from .racks import RackTable
from .rings import Ring


class DeformationError(ValueError):
    pass


class YBEFailure(DeformationError):
    def __init__(self, order, witness, message="Yang-Baxter equation fails"):
        self.order = order
        self.witness = witness
        super().__init__(f"{message} (order {order}, entry {witness})")


@dataclass(frozen=True)
class TruncatedDeformation:
    """A Yang-Baxter operator congruent to its rack operator mod the ideal."""

    rack: RackTable
    ring: Ring
    operator: YBOperator

    def __post_init__(self):
        if not self.ring.is_truncated:
            raise DeformationError("deformations need a truncated coefficient ring")
        residue = self.ring.residue_matrix(self.operator.matrix)
        if np.any((residue - _rack_grid(self.rack)) % self.ring.p):
            raise DeformationError("operator is not congruent to the rack operator mod the ideal")

    def term_offset(self):
        """F - id for c = c_Q . F, in ring layout (column = input pair); every
        entry has positive valuation."""
        return deformation_term(self.operator)

    def check(self):
        return check_ybe(self.operator)


@dataclass
class GaugeSequence:
    """Gauge factors alpha_k with alpha_k = id mod m^k; composite is their product."""

    ring: Ring
    factors: list = field(default_factory=list)
    orders: list = field(default_factory=list)

    def append(self, matrix, order: int):
        self.factors.append(matrix)
        self.orders.append(order)

    def composite(self, dim: int):
        acc = self.factors[0].copy() if self.factors else self.ring.eye(dim)
        for factor in self.factors[1:]:
            acc = self.ring.mat_mul(acc, factor)
        return acc

    def unconjugate(self, op: YBOperator) -> YBOperator:
        """Inverse conjugation, inverting the composite C once; applied to the
        engine output it returns the input."""
        composite = GaugeTransform(self.ring, self.composite(op.dim)).matrix
        return _conjugate(op, self.ring.mat_inv(composite), composite)


def split_non_quasidiagonal(defm: TruncatedDeformation, order: int) -> Cochain:
    """Order-k coefficient of the non-quasi-diagonal entries of the term.

    Requires the term to be quasi-diagonal modulo m^order.  The identity part
    of the term is diagonal, hence quasi-diagonal, so the offset F - id is
    read.  When the operator satisfies the braid relation modulo m^(order+1)
    the result is a 2-cocycle over the residue field.  A result that is not
    a cocycle raises DeformationError if the braid relation does hold that
    far; the relation is only checked once the cocycle test has failed.
    """
    ring = defm.ring
    rack = defm.rack
    term = defm.term_offset()
    offdiag = ~pair_mask(rack, 2, "quasidiagonal")  # symmetric, so layout-safe
    for k in range(order):
        digit = ring.digit_matrix(term, k)
        if np.any(digit.T * offdiag):
            raise DeformationError(
                f"term is not quasi-diagonal modulo ideal power {order} (digit {k})")
    field_ring = ring.residue_field()
    digit = ring.digit_matrix(term, order)
    values = (digit.T * offdiag) % field_ring.p
    result = Cochain(rack, 2, field_ring, values)
    if not coboundary(result).is_zero() and defm.check().holds_mod(order + 1):
        raise DeformationError(
            "extracted part is not a cocycle; the input is not a valid deformation")
    return result


def quasidiagonalize(defm: TruncatedDeformation) -> tuple[GaugeSequence, TruncatedDeformation]:
    """Gauge the deformation to a quasi-diagonal one, order by order."""
    ring = defm.ring
    rack = defm.rack
    verdict = defm.check()
    if not verdict.holds:
        raise YBEFailure(verdict.failure_order, verdict.witness,
                         "input operator fails the Yang-Baxter equation")
    gauges = GaugeSequence(ring=ring)
    current = defm
    dim = rack.size
    for k in range(1, ring.order):
        obstruction = split_non_quasidiagonal(current, k)
        if obstruction.is_zero():
            continue
        _, correction = quasidiagonal_representative(obstruction)
        # conjugating by id + lift(g) adds -d(g) to the term at this order,
        # so the accumulated correction enters with a minus sign
        residue_field = ring.residue_field()
        negated = (-correction.as_operator_matrix()) % residue_field.p
        alpha = ring.mat_add(ring.eye(dim), ring.lift_digit_matrix(negated, k))
        conjugated = gauge_conjugate(current.operator, GaugeTransform(ring, alpha))
        current = TruncatedDeformation(rack=rack, ring=ring, operator=conjugated)
        gauges.append(alpha, k)
        verdict = current.check()
        if not verdict.holds:
            raise YBEFailure(verdict.failure_order, verdict.witness,
                             f"conjugation at order {k} broke the Yang-Baxter equation")
    final_offset = current.term_offset()
    offdiag = ~pair_mask(rack, 2, "quasidiagonal")
    for k in range(ring.order):
        if np.any(ring.digit_matrix(final_offset, k).T * offdiag):
            raise DeformationError("engine failed to clear the non-quasi-diagonal part")
    return gauges, current


@dataclass(frozen=True)
class RigidityReport:
    rack: RackTable
    ring: Ring
    dimension: int
    identity_is_cocycle: bool
    identity_nontrivial: bool

    @property
    def rigid(self) -> bool:
        return self.dimension == 1 and self.identity_is_cocycle and self.identity_nontrivial


def rigidity_check(rack: RackTable, ring: Ring) -> RigidityReport:
    """Rigid iff the degree-2 cohomology is spanned by the identity cochain.

    Checks dim H^2 = 1, that the identity cochain is a cocycle, and that it
    is not a coboundary (exact linear solve), so the one class really is the
    scalar deformation class.  rank d^1 and that solve come from one
    elimination of [d^1 | identity].
    """
    ident = identity_cochain(rack, 2, ring)
    is_cocycle = coboundary(ident).is_zero()
    d1 = coboundary_matrix(rack, ring, 1)
    d2 = coboundary_matrix(rack, ring, 2)
    rank_d1, solution = linalg.rank_and_solve(d1, cochain_to_vector(ident))
    dim = d2.cols - linalg.rank(d2) - rank_d1
    return RigidityReport(rack=rack, ring=ring, dimension=dim,
                          identity_is_cocycle=is_cocycle,
                          identity_nontrivial=solution is None)


# -- parameterised families -----------------------------------------------------
#
# parameter file format: first line the family name, then one line per
# parameter "name value" with the value in the matrix dump syntax of the
# coefficient ring

def dump_family_parameters(name: str, ring: Ring, params: dict) -> str:
    lines = [name]
    for pname in sorted(params):
        lines.append(f"{pname} {ring.scalar_str(params[pname])}")
    return "\n".join(lines) + "\n"


def load_family_parameters(text: str, ring: Ring) -> tuple[str, dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    name = lines[0].strip()
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}")
    params = {}
    for line in lines[1:]:
        pname, value = line.split(None, 1)
        params[pname] = ring.scalar_parse(value)
    return name, params


def instantiate_family(name: str, ring: Ring, params: dict) -> TruncatedDeformation:
    """Build c_Q . (id + f(params)) for a named family over a truncated ring."""
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    make_rack, pattern = FAMILIES[name]
    rack = make_rack()
    needed = family_parameters(pattern)
    missing = [p for p in needed if p not in params]
    if missing:
        raise ValueError(f"missing parameters {missing}")
    for key, value in params.items():
        if ring.valuation(value) < 1:
            raise ValueError(f"parameter {key} must lie in the maximal ideal")
    dim = rack.size ** 2
    term = ring.zeros(dim, dim)
    for (row, col), pname in pattern.items():
        ring.mat_set_entry(term, row, col, params[pname])
    base = rack_operator(rack, ring)
    operator = deform(base, term)
    return TruncatedDeformation(rack=rack, ring=ring, operator=operator)


def random_family_parameters(name: str, ring: Ring, rng, symmetric: bool = False) -> dict:
    """Random maximal-ideal values for each family parameter.

    With ``symmetric`` the primed/double-primed pairs are drawn equal, which
    is the regime where the f-families solve the braid relation exactly.
    """
    _, pattern = FAMILIES[name]
    params = {}
    for pname in family_parameters(pattern):
        digits = [0] + [int(rng.integers(ring.p)) for _ in range(ring.order - 1)]
        value = ring.zero()
        for k, digit in enumerate(digits):
            value = ring.add(value, ring.lift_digit(digit, k))
        params[pname] = value
    if symmetric:
        for pname in list(params):
            if pname.endswith("pp"):
                params[pname] = params[pname[:-1]]
    return params


def _primed_pairs_equal(ring: Ring, params: dict) -> bool:
    for pname, value in params.items():
        if pname.endswith("pp"):
            if not ring.eq(value, params[pname[:-1]]):
                return False
    return True


@dataclass(frozen=True)
class FamilyReport:
    name: str
    ring: Ring
    params: dict
    verdict_by_order: dict       # k -> braid relation holds modulo m^k
    exact: bool                  # holds over the whole truncated ring
    symmetric: bool              # all primed pairs drawn equal
    claim_holds: bool


def check_family_claims(name: str, ring: Ring, params: dict) -> FamilyReport:
    """Instantiate a family and compare braid-relation verdicts to its claim.

    quandle3-f solves the relation exactly for every parameter choice.
    dihedral4-f always holds modulo m^2, and holds exactly whenever all four
    primed pairs agree; with unequal pairs a generic instance fails at order
    two, the obstruction being bilinear in the pair differences and the
    remaining parameters (so special instances, e.g. a lone primed
    parameter, can still survive).  dihedral4-g (characteristic 2) holds
    modulo m^2 always and modulo m^3 whenever the primed pairs agree, with
    the same generic converse.  ``claim_holds`` asserts the unconditional
    directions; the generic failures are a sampling statement and are left
    to the caller.
    """
    if name == "dihedral4-g" and ring.p != 2:
        raise ValueError("the g-family is specific to characteristic 2")
    defm = instantiate_family(name, ring, params)
    verdict = defm.check()
    verdicts = {k: verdict.holds_mod(k) for k in range(1, ring.order + 1)}
    exact = verdict.holds
    symmetric = _primed_pairs_equal(ring, params)
    if name == "quandle3-f":
        claim_holds = exact
    elif name == "dihedral4-f":
        claim_holds = verdicts.get(2, True) and (exact or not symmetric)
    else:
        mod2 = verdicts.get(2, True)
        mod3 = verdicts.get(3, True) if ring.order >= 3 else None
        claim_holds = mod2 and (mod3 is None or mod3 or not symmetric)
    return FamilyReport(name=name, ring=ring, params=params,
                        verdict_by_order=verdicts, exact=exact,
                        symmetric=symmetric, claim_holds=claim_holds)
