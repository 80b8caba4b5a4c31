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
from scipy.integrate import quad as _quad

from .errors import AccuracyError

EULER_GAMMA = 0.57721566490153286

SMALL_T = 0.01
LARGE_T = 30.0
TAIL_T = 100.0

# Taylor coefficients about t = 0 (ascending powers), frozen from an exact
# symbolic expansion; truncation error at t = 0.01 is below 1e-16.
_PREFACTOR_SERIES = (1 / 3, 0.0, -1 / 15, 0.0, 2 / 189, 0.0, -1 / 675, 0.0,
                     2 / 10395)
_LOG_S_SERIES = (-math.log(3.0), -1.0, -1 / 30, 0.0, 13 / 2100, 0.0,
                 -29 / 70875, 0.0, 6067 / 218295000)
_S_SERIES = (1 / 3, -1 / 3, 7 / 45, -2 / 45, 2 / 189, -1 / 315, 13 / 14175,
             -2 / 14175)

# Moments int_0^1 e^{-tb} t^l dt about b = 0, and their 2x2 determinant.
_COV_S0_SERIES = (1.0, -1 / 2, 1 / 6, -1 / 24, 1 / 120, -1 / 720, 1 / 5040,
                  -1 / 40320, 1 / 362880)
_COV_S1_SERIES = (1 / 2, -1 / 3, 1 / 8, -1 / 30, 1 / 144, -1 / 840, 1 / 5760,
                  -1 / 45360, 1 / 403200)
_COV_S2_SERIES = (1 / 3, -1 / 4, 1 / 10, -1 / 36, 1 / 168, -1 / 960, 1 / 6480,
                  -1 / 50400, 1 / 443520)
_COV_DET_SERIES = (1 / 12, -1 / 12, 2 / 45, -1 / 60, 11 / 2240, -73 / 60480,
                   233 / 907200, -11 / 226800, 283 / 34214400)


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


def S_of_t(t: float) -> float:
    """S(t); S(0) is the limit 1/3."""
    t = _check_t(t)
    if t < SMALL_T:
        return _polyval(_S_SERIES, t)
    q = math.exp(-2.0 * t)
    if t > LARGE_T:
        return math.exp(_log_s(t))
    return ((1.0 - q) ** 2 - 4.0 * t * t * q) / (2.0 * t ** 3 * (1.0 - q))


def psi_limit(t: float) -> float:
    """Psi(t) = (1/t^2 - 1/sinh^2 t) (log S(t) + 1 - gamma) / 2."""
    t = _check_t(t)
    if t == 0.0:
        return (1.0 - EULER_GAMMA - math.log(3.0)) / 6.0
    return _prefactor(t) * (_log_s(t) + 1.0 - EULER_GAMMA) / 2.0


def _series_head_integral(series, upper: float) -> float:
    """Exact integral over [0, upper] of a truncated Taylor polynomial."""
    return sum(c * upper ** (k + 1) / (k + 1) for k, c in enumerate(series))


def _phi_head_integral(upper: float) -> float:
    prod = np.polymul(_PREFACTOR_SERIES[::-1], _LOG_S_SERIES[::-1])[::-1]
    return _series_head_integral(tuple(prod), upper)


@functools.lru_cache(maxsize=None)
def integral_phi(tol: float = 1e-10) -> float:
    """int_0^inf Phi(t) dt.

    Series antiderivative on [0, 0.01], adaptive quadrature on [0.01, 100],
    closed-form tail -(log 2 + 3 log T + 3)/T at T = 100 from
    Phi ~ -log(2 t^3)/t^2 (remainder O(T^2 e^{-2T})).
    """
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError(f"tol must be >= 1e-12, got {tol!r}")
    head = _phi_head_integral(SMALL_T)
    main, err = _quad(phi, SMALL_T, TAIL_T, epsabs=0.25 * tol, epsrel=1e-13,
                      limit=400)
    if err > tol:
        raise AccuracyError(
            f"quadrature error estimate {err:.2e} above tol {tol:.2e}",
            estimate=head + main)
    tail = -(math.log(2.0) + 3.0 * math.log(TAIL_T) + 3.0) / TAIL_T
    return float(head + main + tail)


def c_star(tol: float = 1e-10) -> float:
    """1 - gamma + int Phi, which equals 2 int Psi."""
    return 1.0 - EULER_GAMMA + integral_phi(tol)


def d_star(tol: float = 1e-10) -> float:
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
    """The assembled limit constants plus quadrature metadata."""

    gamma: float
    integral_phi: float
    c_star: float
    d_star: float
    method: dict

    @classmethod
    def compute(cls, tol: float = 1e-10) -> "ConstantTable":
        return cls(gamma=EULER_GAMMA, integral_phi=integral_phi(tol),
                   c_star=c_star(tol), d_star=d_star(tol),
                   method={"tol": tol, "series_below": SMALL_T,
                           "asymptotic_above": LARGE_T, "tail_at": TAIL_T})


def normalization_identity_check(tol: float = 1e-8, upper: float = TAIL_T) -> float:
    """Numerical int_0^inf (1/t^2 - 1/sinh^2 t) dt; the antiderivative
    -1/t + coth t makes the exact value 1."""
    head = _series_head_integral(_PREFACTOR_SERIES, SMALL_T)
    main, err = _quad(_prefactor, SMALL_T, upper, epsabs=0.25 * tol,
                      epsrel=1e-13, limit=400)
    if err > tol:
        raise AccuracyError(
            f"quadrature error estimate {err:.2e} above tol {tol:.2e}",
            estimate=head + main)
    q = math.exp(-2.0 * upper)
    tail = 1.0 / upper - 2.0 * q / (1.0 - q)
    return float(head + main + tail)


@dataclass(frozen=True)
class KacRiceDensityPoint:
    """Finite-n exponential-sum quantities and their limits at one t."""

    t: float
    s0: float
    s1: float
    s2: float
    s_tilde: float
    psi_n: float
    psi_limit: float


def _s_sums(n: int, t: float):
    k = np.arange(n + 1, dtype=np.float64)
    w = np.exp((-2.0 * t / n) * k)
    s0 = float(w.sum()) / n
    s1 = float((k * w).sum()) * (-2.0) / n ** 2
    s2 = float((k * k * w).sum()) * 4.0 / n ** 3
    return s0, s1, s2


def s_n_suite(n: int, t: float) -> KacRiceDensityPoint:
    """s_n and derivatives, the Schur-complement combination, and the
    densities psi_n and Psi side by side.

    s_n^(l)(t) = n^(-1-l) sum_k (-2k)^l exp(-2tk/n),
    s_tilde = s'' - (s')^2 / s,
    psi_n = s_tilde (log s_tilde + 1 - gamma) / (2 s).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = float(t)
    if t < 0 or t > math.log(n) ** 4:
        raise ValueError("t must lie in [0, log^4 n]")
    s0, s1, s2 = _s_sums(n, t)
    s_tilde = s2 - s1 * s1 / s0
    psi_n = s_tilde * (math.log(s_tilde) + 1.0 - EULER_GAMMA) / (2.0 * s0)
    return KacRiceDensityPoint(t=t, s0=s0, s1=s1, s2=s2, s_tilde=s_tilde,
                               psi_n=psi_n, psi_limit=psi_limit(t))


def gaussian_log_moment(s: float) -> float:
    """E[|Z|^2 log|Z|] = (s/2)(log s + 1 - gamma) for Z complex Gaussian
    with mean zero and E|Z|^2 = s."""
    if s <= 0:
        raise ValueError("s must be positive")
    return 0.5 * s * (math.log(s) + 1.0 - EULER_GAMMA)


def covariance_suite(b: float):
    """Moments S_l = int_0^1 e^{-tb} t^l dt for l = 0,1,2 and S0 S2 - S1^2.

    The determinant equals (1 + e^{-2b} - 2 e^{-b} - b^2 e^{-b}) / b^4 and
    stays positive for all b >= 0; a series route below b = 0.01 avoids the
    small-b cancellation, with limit values (1, 1/2, 1/3, 1/12).
    """
    b = float(b)
    if b < 0:
        raise ValueError("b must be >= 0")
    if b < 0.01:
        return (_polyval(_COV_S0_SERIES, b), _polyval(_COV_S1_SERIES, b),
                _polyval(_COV_S2_SERIES, b), _polyval(_COV_DET_SERIES, b))
    q = math.exp(-b)
    s0 = (1.0 - q) / b
    s1 = (1.0 - (1.0 + b) * q) / b ** 2
    s2 = (2.0 - (b * b + 2.0 * b + 2.0) * q) / b ** 3
    return s0, s1, s2, s0 * s2 - s1 * s1


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
    c = 1.0 - EULER_GAMMA

    def integrand(t):
        pt = s_n_suite(n, t)
        v = pt.s_tilde / 4.0
        return (v / pt.s0) * (math.log(v) + 2.0 * t / n + c)
    val, _ = _quad(integrand, 0.0, T_n(n), limit=400)
    return float(val)
