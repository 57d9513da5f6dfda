"""The parameterised deformation families and their order conditions.

Three families of deformed operators over truncated rings:

* quandle3-f: nine parameters, solves the braid relation at every order,
  in every characteristic;
* dihedral4-f: sixteen parameters with four of them split into primed
  pairs; exact whenever the pairs agree, with a generic order-two failure
  when they do not;
* dihedral4-g: a characteristic-two family that always works modulo h^2
  and survives modulo h^3 exactly when its primed pairs agree.
"""

import numpy as np

import ybrack as yb

rng = np.random.default_rng(0)

ring = yb.parse_ring("F5[h]/h^4")
params = {f"l{i}": ring.lift_digit(i % 5, 1) for i in range(1, 10)}
report = yb.check_family_claims("quandle3-f", ring, params)
print(f"quandle3-f with lambda_i = i h over {ring}: exact = {report.exact}")

for trial in range(3):
    params = yb.random_family_parameters("quandle3-f", ring, rng)
    assert yb.check_family_claims("quandle3-f", ring, params).exact
print("quandle3-f random draws: all exact")
print()

ring = yb.parse_ring("F3[h]/h^4")
sym = yb.random_family_parameters("dihedral4-f", ring, rng, symmetric=True)
print(f"dihedral4-f symmetric over {ring}: exact =",
      yb.check_family_claims("dihedral4-f", ring, sym).exact)
asym = dict(sym)
asym["l5pp"] = ring.add(asym["l5p"], ring.lift_digit(1, 1))
asym["l6"] = ring.lift_digit(1, 1)
report = yb.check_family_claims("dihedral4-f", ring, asym)
print(f"dihedral4-f with l5' != l5'': verdicts by order {report.verdict_by_order}")
print()

ring = yb.parse_ring("F2[h]/h^3")
params = {k: ring.zero() for k in ("ap", "app", "bp", "bpp", "gp", "gpp", "dp", "dpp")}
params["ap"] = ring.lift_digit(1, 1)
defm = yb.instantiate_family("dihedral4-g", ring, params)
verdict = yb.check_ybe(defm.operator)
print(f"dihedral4-g with alpha' = h, alpha'' = 0 over {ring}:")
print(f"  holds modulo h^2: {verdict.holds_mod(2)}")
print(f"  holds modulo h^3: {verdict.holds_mod(3)}")
print(f"  first failure at order {verdict.failure_order}, "
      f"entry {verdict.witness[:2]}")
