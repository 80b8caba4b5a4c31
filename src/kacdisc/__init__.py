"""Random Kac polynomial discriminant laboratory.

Overflow-safe log-discriminant computation, Mahler measures by two routes,
all-roots solving with residual certificates, the limiting densities and
constants of the discriminant law of large numbers, and seeded Monte Carlo
experiments that measure the finite-n behavior.
"""

from .discriminant import (DiscriminantBreakdown, MahlerResult, decompose,
                           double_root_guard, exact_discriminant,
                           log_abs_discriminant, mahler)
from .errors import (AccuracyError, ConfigurationError,
                     DegenerateDegreeError, DegenerateReciprocalError,
                     DoubleRootError, EmptyInputError,
                     ExperimentIntegrityError, GridCollisionError,
                     InvalidBoundError, KacdiscError, NonConvergenceError,
                     NonFiniteCoefficientError, OracleCapError)
from .experiments import (ExperimentConfig, ExperimentReport, SummaryStats,
                          ks_two_sample, run_clustering, run_kacrice_gaussian,
                          run_lln, run_mahler, run_min_modulus, run_symmetry,
                          summarize)
from .limits import (EULER_GAMMA, ConstantTable, KacRiceDensityPoint, S_of_t,
                     T_n, c_star, covariance_suite, d_star,
                     gaussian_log_moment, integral_phi, kac_rice_exact_mean,
                     normalization_identity_check, phi, psi_limit, s_n_suite)
from .polynomials import (CoefficientDistribution, Coefficients, reciprocal,
                          sample_kac)
from .rootfind import (RootSet, RootStats, erdos_turan_bound, find_roots,
                       root_stats)

__version__ = "0.1.0"
