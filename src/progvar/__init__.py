"""Desk-scale statistics for bounded multiplicative functions in short
arithmetic progressions: pretentious distances and main-character selection,
deviation/variance with the exact Parseval identity, the sampled
short-interval hybrid statistic, smooth-number and factorization machinery,
twisted character-sum scans, and Linnik-type least-element searches.
"""

from .characters import (CharacterFlags, DirichletCharacter, UnitGroupStructure,
                         character, character_sums, characters, classify,
                         unit_group)
from .errors import CapacityError, DomainError
from .linnik import (LinnikScanResult, e3_least, e3_star_logsum, least_qnr,
                     linnik_L3, linnik_mobius, linnik_scan, mobius_least,
                     ternary_coverage)
from .multfunc import (MultiplicativeFunction, builtin, evaluate_range,
                       parse_descriptor, restrict_smooth)
from .pretentious import (MainCharacterSelection, distance_sq, halasz_M,
                          select_main_character)
from .sieve import (PrimeFactorization, PrimeTable, default_table, euler_phi,
                    factor, mobius, omega_in_range, prime_bounds)
from .smooth import (DickmanTable, ThetaLadder, canonical_factorization, dickman,
                     dickman_table, psi_q, sj_membership, smooth_count,
                     smooth_recip_sum, theta_ladder)
from .spectrum import (RatioRecord, SpectrumPoint, decomposition_sums,
                       large_value_census, log_prime_char_sum, mean_value_ratio,
                       prime_char_sum, ramare_identity_check, ramare_weight,
                       sup_norm_scan)
from .variance import (VarianceReport, delta_typicality, deviation,
                       hybrid_variance, is_y_typical, parseval_check, variance,
                       variance_scan)

__version__ = "0.1.0"
