"""Exact computation of a 2-adic torsion invariant of biquadratic fields.

The pipeline is pure rational arithmetic: group rings of the Klein
four-group, perfect complexes with their splitting-independent
determinants, tame local classes, and Kronecker-symbol Galois data for
E = Q(sqrt(d1), sqrt(d2)).  Floating point appears only in the Dirichlet
L-function cross-checks.
"""

from .biquadratic import (FieldData, PrimeLocalData, artin_conductor,
                          euler_factor, field_data, frob_det_quotient,
                          local_galois, ramified_set)
from .invariant import (AnalyticCheck, InvariantReport, ResolventCheck,
                             SweepSummary, delta1_term, leading_ratio_check,
                             leading_ratio_exact, omega_loc_torsion,
                             resolvent_factor_check, sweep, ts_representative)
from .errors import (ContractViolationError, InputError, TqError,
                     UnsupportedGroupError)
from .grouprings import (GaloisChar, GroupElement, GroupRingElem,
                         GroupRingMatrix, HOMREP_KEYS, V4_A, V4_AB, V4_B,
                         V4_CHARS, V4_E, apply_char, apply_char_matrix,
                         group_elements, idempotent)
from .localterms import (LatticeExponent, TameComplexSpec, build_tame_complex,
                         local_term_closed_form, local_term_via_complex,
                         residue_class, valuation_iso, verify_residue_resolution)
from .perfectcomplex import (CohomologyIso, CohomologyIsoComponent,
                             PerfectComplex, RationalComplex, char_specialize,
                             class_representative, cohomology_basis,
                             torsion_determinant)
from .relk0 import (HomRep, RankVector, TorsionClass, induce_from_subgroup,
                    odd_part_mod4, rank_vector, torsion_class, v2)

__version__ = "0.1.0"
