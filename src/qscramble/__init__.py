"""Two-qubit entanglement detection from scrambled measurement data.

Scrambled data keeps the outcome probabilities of each local measurement but
forgets which probability belongs to which outcome.  This package implements
three detection routes that survive the scrambling: entropic uncertainty
bounds, scrambling-invariant witness families, and exhaustive convex
feasibility over the canonical outcome assignments.
"""

from .detector import (DetectionReport, ScanStats, SlicePoint, Verdict,
                       counterexample_mixture, detect, nonconvex_slice, rho1, scan,
                       scrambled_possibly_separable, star_convexity_ray, verify_counterexample)
from .entropy import (EntropyPoint, EntropySpec, all_states_bound,
                      all_states_bound_closed_form, entropy, entropy_detect,
                      psi_t_entropies, robustness, separable_bound,
                      separable_bound_closed_form, t_from_sxx)
from .errors import (ConvergenceFailure, DomainError, DuplicateSetting, InvalidState,
                     MissingSetting, NotHermitian, QScrambleError, SettingMismatch)
from .feasibility import (FeasibilityProblem, FeasibilityResult, FeasibilityStatus,
                          feasible_for_probabilities)
from .measurement import (MeasurementSetting, OutcomeDistribution, PermutationPair,
                          ScrambledData, apply_permutation, canonical_permutations,
                          probabilities, relabeling_group, scramble, scramble_equivalent,
                          scramble_state, setting)
from .quantum import (DensityMatrix, ProductStateParams, PureState, eig_hermitian,
                      is_ppt, maximally_mixed, mix, partial_transpose, phi_plus,
                      plus_zero, product_state, psi_t, random_hs_state, singlet)
from .witness import (WitnessParams, correlation_witness_values, min_entropy_form,
                      min_over_separable, optimize_params, scrambled_witness_min,
                      witness_matrix, witness_min_eigvec, witness_value)

__version__ = "0.1.0"
