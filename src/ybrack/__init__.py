"""Exact computational algebra for racks and Yang-Baxter deformations.

The package computes, over exact coefficients only:

* finite racks and quandles, their inner groups and behavioural classes;
* the permutation operator of a rack on its tensor square, braid-relation
  checks, gauge conjugation, and deformations over truncated rings;
* the Yang-Baxter cochain complex with its diagonal (rack) and
  quasi-diagonal subcomplexes, cohomology dimensions, and the dual chain
  complex with the trace pairing;
* the homotopy retraction onto the quasi-diagonal subcomplex and the
  order-by-order quasi-diagonalisation of complete deformations.
"""

from .rings import (NotAFieldError, NotAUnitError, PadicRing, PrimeField,
                    Rationals, SeriesRing, parse_ring, ring_spec)
from .linalg import (ExactMatrix, dump_matrix, kernel_basis, load_matrix, rank,
                     solve)
from .racks import (BehaviorPartition, ClosureError, InnerGroup, RackAxiomError,
                    RackTable, affine_quandle, behavior_partition,
                    conjugation_rack, cycles_to_permutation, dihedral_quandle,
                    dump_rack, inner_group, inverse_op, is_rack_homomorphism,
                    load_rack, orbit_quotient, permutation_rack,
                    rack_from_translations, trivial_extension, trivial_rack,
                    validate)
from .operators import (GaugeTransform, InvalidOperatorError, YBEVerdict,
                        YBOperator, check_ybe, deform, deformation_term,
                        dump_operator, gauge_conjugate, load_operator,
                        operator_from_matrix, rack_operator)
from .cochains import (Cochain, CoefficientError, RackCochain, SizeGuardError,
                       coboundary, coboundary_matrix, cochain_from_entries,
                       cochain_to_vector, cohomology_dim, diagonal_part,
                       dump_cochain, from_rack_cochain, identity_cochain,
                       is_entropic, is_fully_equivariant, pair_basis,
                       partial_coboundary, project_diagonal,
                       project_quasidiagonal, pullback, rack_coboundary,
                       rack_cohomology_dim, vector_to_cochain, zero_cochain)
from .chains import (Chain, boundary, chain_from_entries, dump_chain,
                     pairing, partial_boundary, zero_chain)
from .homotopy import (FiltrationError, NotACocycleError, PostconditionError,
                       WitnessMap, build_witness_map, filtration_level,
                       homotopy_defect, insertion_homotopy, level_projection,
                       quasidiagonal_projection, quasidiagonal_representative)
from .deformations import (DeformationError, FamilyReport, GaugeSequence,
                           RigidityReport, TruncatedDeformation, YBEFailure,
                           check_family_claims, dump_family_parameters,
                           instantiate_family, load_family_parameters,
                           quasidiagonalize, random_family_parameters,
                           rigidity_check, split_non_quasidiagonal)
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]
