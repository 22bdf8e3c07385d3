"""Exact chain-complex computations over the polynomial ring F2[U].

The package classifies free finitely generated complexes over the power
series completion, computes homology in the minus/infinity/plus flavors
with explicit representatives, inverts the connecting homomorphism of
the associated long exact sequence, and compares the resulting duality
quantity against a direct Lefschetz-trace oracle.
"""

from .complexes import (ChainMap, GradedComplex, LaurentChain,
                        build_chain_map, build_complex, compose, cone,
                        complex_to_text, direct_sum, dual, identity_map,
                        map_add, map_to_text, parse_chain_map, parse_complex,
                        relabel, scalar_map, shift, tensor, tensor_map,
                        unit_complex, zero_map)
from .errors import (BothZero, ComplexMismatch, CrossCheckMismatch,
                     DegreeMismatch, DifferentialNotSquareZero,
                     DuplicateGenerator, ExponentOverflow, GradingViolation,
                     InfinityNotZero, InternalCheckError, NotAChainMap,
                     NotACycle, NotACycleInPlus, NotAUnit, NotInImage,
                     NotUFree, ParameterOutOfRange, ParseError,
                     PreconditionError, RankTooLarge, UChainError,
                     ValidationError)
from .homology import (HomologyPresentation, delta, delta_inverse, f2_pairing,
                       h_infinity, h_minus, h_plus, h_red,
                       les_exactness_check, mapping_torus_betti)
from .lefschetz import (TrialFailure, VerificationReport, cotrace_map,
                        delta_quantity, lefschetz_by_grading,
                        lefschetz_oracle, phi, phi_dual, trace_map,
                        verify_proposition)
from .normal_form import (NormalForm, classify, minor_gcd_check,
                          random_basis_change, random_chain_map,
                          random_normal_form, realize, reduce_complex)
from .scalars import LocalScalar, Poly, poly_gcd

__version__ = "0.1.0"
