"""Stable evaluation of the limiting densities and constants.

The density Phi(t) = (1/t^2 - 1/sinh^2 t) * log S(t) with

    S(t) = (1 + 2t^2 - cosh 2t)(1 - coth t) / (2 t^3)

is evaluated through three routes: a frozen Taylor series below t = 0.01
(the direct formula loses all precision to cancellation there), an
exponential form in the middle, and an asymptotic form above t = 30 where
hyperbolic functions would round 1 - coth t to zero.  With q = exp(-2t) the
exponential form is

    S(t) = ((1-q)^2 - 4 t^2 q) / (2 t^3 (1-q)),
    1/t^2 - 1/sinh^2 t = 1/t^2 - 4 q / (1-q)^2,

which is algebraically identical to the hyperbolic form.  The finite-n
Kac-Rice quantities are plain exponential sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError

# scipy.integrate is imported inside the two functions that call quad: it
# is most of the time `import kacdisc` takes, and most runs never integrate.

EULER_GAMMA = 0.57721566490153286

SMALL_T = 0.01
LARGE_T = 30.0
TAIL_T = 100.0

# Default and largest tol of integral_phi, c_star, d_star and ConstantTable:
# d_star moves by half the error of int Phi, so the largest keeps it 100x
# inside the 5e-5 of the `constants` verdict (cli.D_STAR_REFERENCE_TOL);
# with an unbounded tol, quad stops at its first estimate.
CONSTANTS_TOL = 1e-10
CONSTANTS_TOL_MAX = 1e-6

# Taylor coefficients about t = 0 (ascending powers), frozen from an exact
# symbolic expansion; truncation error at t = 0.01 is below 1e-16.
_PREFACTOR_SERIES = (1 / 3, 0.0, -1 / 15, 0.0, 2 / 189, 0.0, -1 / 675, 0.0,
                     2 / 10395)
_LOG_S_SERIES = (-math.log(3.0), -1.0, -1 / 30, 0.0, 13 / 2100, 0.0,
                 -29 / 70875, 0.0, 6067 / 218295000)


def _polyval(series, t: float) -> float:
    acc = 0.0
    for c in reversed(series):
        acc = acc * t + c
    return acc


def _prefactor(t: float) -> float:
    """1/t^2 - 1/sinh^2 t, positive and decreasing from 1/3 at t = 0."""
    if t < SMALL_T:
        return _polyval(_PREFACTOR_SERIES, t)
    q = math.exp(-2.0 * t)
    return 1.0 / (t * t) - 4.0 * q / (1.0 - q) ** 2


def _log_s(t: float) -> float:
    if t < SMALL_T:
        return _polyval(_LOG_S_SERIES, t)
    q = math.exp(-2.0 * t)
    if t > LARGE_T:
        return -math.log(2.0 * t ** 3) - (4.0 * t * t + 1.0) * q
    return math.log(((1.0 - q) ** 2 - 4.0 * t * t * q) / (2.0 * t ** 3 * (1.0 - q)))


def _check_t(t: float) -> float:
    t = float(t)
    if t < 0 or math.isnan(t):
        raise ValueError("t must be >= 0")
    return t


def phi(t: float) -> float:
    """Phi(t); Phi(0) is the limit -log(3)/3."""
    t = _check_t(t)
    if t == 0.0:
        return -math.log(3.0) / 3.0
    return _prefactor(t) * _log_s(t)


def psi_limit(t: float) -> float:
    """Psi(t) = (1/t^2 - 1/sinh^2 t) (log S(t) + 1 - gamma) / 2."""
    t = _check_t(t)
    if t == 0.0:
        return (1.0 - EULER_GAMMA - math.log(3.0)) / 6.0
    return _prefactor(t) * (_log_s(t) + 1.0 - EULER_GAMMA) / 2.0


# Taylor series of Phi = prefactor * log S, ascending powers
_PHI_SERIES = tuple(np.polymul(_PREFACTOR_SERIES[::-1], _LOG_S_SERIES[::-1])[::-1])


def _integral_to_tail(f, series, tol: float) -> float:
    """int_0^TAIL_T f: the exact integral of f's truncated Taylor series on
    [0, SMALL_T] plus adaptive quadrature on [SMALL_T, TAIL_T];
    AccuracyError if quad's error estimate exceeds tol."""
    from scipy.integrate import quad
    head = sum(c * SMALL_T ** (k + 1) / (k + 1) for k, c in enumerate(series))
    main, err = quad(f, SMALL_T, TAIL_T, epsabs=0.25 * tol, epsrel=1e-13,
                     limit=400)
    if err > tol:
        raise AccuracyError(
            f"quadrature error estimate {err:.2e} above tol {tol:.2e}",
            estimate=head + main)
    return head + main


@functools.lru_cache(maxsize=None)
def integral_phi(tol: float = CONSTANTS_TOL) -> float:
    """int_0^inf Phi(t) dt.

    Series antiderivative on [0, 0.01], adaptive quadrature on [0.01, 100],
    closed-form tail -(log 2 + 3 log T + 3)/T at T = 100 from
    Phi ~ -log(2 t^3)/t^2 (remainder O(T^2 e^{-2T})).  Raises ValueError
    unless 1e-12 <= tol <= CONSTANTS_TOL_MAX.
    """
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError(f"tol must be >= 1e-12, got {tol!r}")
    if tol > CONSTANTS_TOL_MAX:
        raise ValueError(f"tol must be <= {CONSTANTS_TOL_MAX}, got {tol!r}")
    tail = -(math.log(2.0) + 3.0 * math.log(TAIL_T) + 3.0) / TAIL_T
    return float(_integral_to_tail(phi, _PHI_SERIES, tol) + tail)


def c_star(tol: float = CONSTANTS_TOL) -> float:
    """1 - gamma + int Phi, which equals 2 int Psi."""
    return 1.0 - EULER_GAMMA + integral_phi(tol)


def d_star(tol: float = CONSTANTS_TOL) -> float:
    """D_* of |disc f_n| = n^(2n) e^(-D_* n (1 + o(1))), so that -D_* is the
    limit of the statistic (log|disc| - 2 n log n)/n.

    That statistic splits into the Mahler term, with limit -gamma/2, and the
    sums of log|f'(alpha)/n^1.5| over the roots inside and outside the
    circle, each with limit c_star/4 - (log 2)/2 per degree: the derivative
    at a zero has conditional variance s_tilde/4 (see kac_rice_exact_mean)
    and the prefactor 1/t^2 - 1/sinh^2 t integrates to 1.  Hence

        D_* = gamma/2 + log 2 - c_star/2 = gamma - 1/2 + log 2 - (1/2) int Phi.
    """
    return EULER_GAMMA - 0.5 + math.log(2.0) - 0.5 * integral_phi(tol)


@dataclass(frozen=True)
class ConstantTable:
    """The assembled limit constants."""

    gamma: float
    integral_phi: float
    c_star: float
    d_star: float

    @classmethod
    def compute(cls, tol: float = CONSTANTS_TOL) -> "ConstantTable":
        return cls(gamma=EULER_GAMMA, integral_phi=integral_phi(tol),
                   c_star=c_star(tol), d_star=d_star(tol))


def normalization_identity_check(tol: float = 1e-8) -> float:
    """Numerical int_0^inf (1/t^2 - 1/sinh^2 t) dt; the antiderivative
    -1/t + coth t makes the exact value 1."""
    q = math.exp(-2.0 * TAIL_T)
    tail = 1.0 / TAIL_T - 2.0 * q / (1.0 - q)
    return float(_integral_to_tail(_prefactor, _PREFACTOR_SERIES, tol) + tail)


@dataclass(frozen=True)
class KacRiceDensityPoint:
    """Finite-n exponential-sum quantities at one t."""

    s0: float
    s_tilde: float
    psi_n: float


def s_n_suite(n: int, t: float) -> KacRiceDensityPoint:
    """s_n, the Schur-complement combination and the density psi_n.

    s_n^(l)(t) = n^(-1-l) sum_k (-2k)^l exp(-2tk/n),
    s_tilde = s'' - (s')^2 / s,
    psi_n = s_tilde (log s_tilde + 1 - gamma) / (2 s).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = float(t)
    if t < 0 or t > math.log(n) ** 4:
        raise ValueError("t must lie in [0, log^4 n]")
    k = np.arange(n + 1, dtype=np.float64)
    w = np.exp((-2.0 * t / n) * k)
    s0 = float(w.sum()) / n
    s1 = float((k * w).sum()) * (-2.0) / n ** 2
    s2 = float((k * k * w).sum()) * 4.0 / n ** 3
    s_tilde = s2 - s1 * s1 / s0
    psi_n = s_tilde * (math.log(s_tilde) + 1.0 - EULER_GAMMA) / (2.0 * s0)
    return KacRiceDensityPoint(s0=s0, s_tilde=s_tilde, psi_n=psi_n)


def gaussian_log_moment(s: float) -> float:
    """E[|Z|^2 log|Z|] = (s/2)(log s + 1 - gamma) for Z complex Gaussian
    with mean zero and E|Z|^2 = s."""
    if s <= 0:
        raise ValueError("s must be positive")
    return 0.5 * s * (math.log(s) + 1.0 - EULER_GAMMA)


def T_n(n: int) -> float:
    """-n log(1 - log^3(n)/n); defined only while log^3 n < n."""
    x = math.log(n) ** 3 / n
    if x >= 1.0:
        raise ValueError("log^3 n >= n: annulus depth undefined")
    return -n * math.log1p(-x)


def kac_rice_exact_mean(n: int) -> float:
    """Expected (1/n) sum over annulus roots of log|g'(alpha)/n^1.5| for the
    complex-Gaussian model, by direct conditional-moment quadrature.

    At radius e^{-t/n} the derivative given a zero there is a mean-zero
    complex Gaussian whose variance is the Schur complement of the raw
    moment sums, which in s_n terms is v = e^{2t/n} s_tilde / 4.  Weighting
    E[|Z|^2 log|Z|] = gaussian_log_moment(v) by the zero-count density and
    the radial area element gives 2 int_0^{T_n} gaussian_log_moment(v)
    e^{-2t/n} / s0 dt, that is

        int_0^{T_n} (s_tilde / (4 s0)) (log(s_tilde/4) + 2t/n + 1 - gamma) dt.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    from scipy.integrate import quad
    c = 1.0 - EULER_GAMMA

    def integrand(t):
        pt = s_n_suite(n, t)
        v = pt.s_tilde / 4.0
        return (v / pt.s0) * (math.log(v) + 2.0 * t / n + c)
    val, _ = quad(integrand, 0.0, T_n(n), limit=400)
    return float(val)
