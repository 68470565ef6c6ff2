"""Exact arithmetic for polynomial sequences that multiply like quantum
integers: f_{mn}(q) = f_m(q) f_n(q^m), plus the additive analogue
f_m(q) + q^m f_n(q).

Construction (built-ins, per-prime seeds, scalar scalings, transforms,
products and formal quotients), exhaustive exact verification, and the
canonical lambda(n) q^(t(n-1)) g_n(q) decomposition, over the rationals,
prime fields, and cyclotomic fields.
"""

from .analyze import (Decomposition, DecompositionError,
                      DeltaInconsistencyError, FailedIdentity, OracleFamily,
                      QuantumForcedReport, VerificationReport,
                      ZetaAdmissibilityReport, additive_law_holds,
                      check_quantum_forced, decompose, infer_degree_t,
                      solve_delta, uniqueness_oracle, verify_fe,
                      zeta_admissibility)
from .poly import (InexactDivision, Polynomial, constant,
                   cyclotomic_polynomial, from_rationals, monomial, one,
                   quantum_integer, scaled_quantum_integer, zero)
from .rings import (QQ, CyclotomicField, PrimeField, RationalField, Ring,
                    ring_from_descriptor, root_of_unity_order)
from .semigroup import (ALL_PRIMES, Factorization, PrimeSet,
                        enumerate_semigroup, euler_phi, factorize,
                        in_semigroup, is_prime, omega, seed_gcd,
                        support_members)
from .sequences import (AdditiveSequence, CommutativityError,
                        CommutativityFailure, FESequence, PsiIdentityError,
                        RationalSequence, ZetaAdmissibilityError,
                        additive_sequence, assemble, check_seed_commutativity,
                        dilate_sequence, exact_quotient_sequence, from_seeds,
                        identity_sequence, monomial_sequence, oplus, otimes,
                        product_sequence, psi_substitute_sequence,
                        quantum_sequence, rational_quotient,
                        reciprocal_sequence, zeta_scaled_sequence)

__all__ = [
    "ALL_PRIMES", "AdditiveSequence", "CommutativityError",
    "CommutativityFailure", "CyclotomicField", "Decomposition",
    "DecompositionError", "DeltaInconsistencyError", "FESequence",
    "FailedIdentity", "Factorization", "InexactDivision", "OracleFamily",
    "Polynomial", "PrimeField", "PrimeSet", "PsiIdentityError", "QQ",
    "QuantumForcedReport", "RationalField", "RationalSequence", "Ring",
    "VerificationReport", "ZetaAdmissibilityError", "ZetaAdmissibilityReport",
    "additive_law_holds", "additive_sequence", "assemble",
    "check_quantum_forced", "check_seed_commutativity", "constant",
    "cyclotomic_polynomial",
    "decompose", "dilate_sequence", "enumerate_semigroup", "euler_phi",
    "exact_quotient_sequence", "factorize", "from_rationals", "from_seeds",
    "identity_sequence", "in_semigroup", "infer_degree_t", "is_prime",
    "monomial", "monomial_sequence", "omega", "one", "oplus", "otimes",
    "product_sequence", "psi_substitute_sequence", "quantum_integer",
    "quantum_sequence", "rational_quotient", "reciprocal_sequence",
    "ring_from_descriptor", "root_of_unity_order", "scaled_quantum_integer",
    "seed_gcd", "solve_delta", "support_members", "uniqueness_oracle",
    "verify_fe", "zero", "zeta_admissibility", "zeta_scaled_sequence",
]
