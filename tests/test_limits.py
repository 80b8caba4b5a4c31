import math

import numpy as np
import pytest

from kacdisc import limits
from kacdisc.limits import (EULER_GAMMA, ConstantTable, T_n, c_star, d_star,
                            gaussian_log_moment, integral_phi,
                            kac_rice_exact_mean, normalization_identity_check,
                            phi, psi_limit, s_n_suite)

# High-precision reference values computed offline at 50 digits.
PHI_AT_1 = -0.586683122369085896202176737069
PHI_AT_HALF = -0.509772109757266363129502644526
PHI_AT_50 = -0.00497168647873775339410939379408
PSI_AT_1 = -0.235010357586276032626190141345
INTEGRAL_PHI = -3.877234408309957674241313
D_STAR = 2.708980049616457007144400806  # gamma - 1/2 + log 2 - INTEGRAL_PHI/2
C_STAR = -3.454450073211490534847825


# ------------------------------------------------------------------ phi

def test_phi_limit_at_zero():
    assert abs(phi(1e-8) - (-math.log(3) / 3)) < 1e-6
    assert phi(0.0) == -math.log(3) / 3


def test_phi_golden_values():
    assert abs(phi(1.0) - PHI_AT_1) < 1e-14
    assert abs(phi(0.5) - PHI_AT_HALF) < 1e-14
    assert abs(phi(50.0) - PHI_AT_50) < 1e-15


def test_phi_domain():
    with pytest.raises(ValueError):
        phi(-0.1)


def test_route_continuity_at_switch_points():
    # series vs exponential form at t = 0.01; exponential vs asymptotic at 30
    t = limits.SMALL_T
    series = limits._polyval(limits._PREFACTOR_SERIES, t) * \
        limits._polyval(limits._LOG_S_SERIES, t)
    q = math.exp(-2 * t)
    direct = (1 / t ** 2 - 4 * q / (1 - q) ** 2) * math.log(
        ((1 - q) ** 2 - 4 * t * t * q) / (2 * t ** 3 * (1 - q)))
    assert abs(series - direct) <= 1e-10
    t = limits.LARGE_T
    q = math.exp(-2 * t)
    direct = (1 / t ** 2 - 4 * q / (1 - q) ** 2) * math.log(
        ((1 - q) ** 2 - 4 * t * t * q) / (2 * t ** 3 * (1 - q)))
    asym = (1 / t ** 2 - 4 * q / (1 - q) ** 2) * (
        -math.log(2 * t ** 3) - (4 * t * t + 1) * q)
    assert abs(asym - direct) <= 1e-10
    # same continuity for psi
    lo = psi_limit(limits.SMALL_T * (1 - 1e-9))
    hi = psi_limit(limits.SMALL_T * (1 + 1e-9))
    assert abs(lo - hi) <= 1e-10


# -------------------------------------------------------------------- psi

def test_psi_phi_affine_identity():
    for t in (0.1, 1.0, 10.0):
        p = limits._prefactor(t)
        assert abs(2 * psi_limit(t) - (1 - EULER_GAMMA) * p - phi(t)) <= 1e-12


def test_psi_golden():
    assert abs(psi_limit(1.0) - PSI_AT_1) < 1e-14


# -------------------------------------------------------------- constants

def test_integral_phi_golden():
    assert abs(integral_phi(1e-10) - INTEGRAL_PHI) < 1e-9


def test_constant_identities():
    ip = integral_phi()
    assert c_star() == pytest.approx(1 - EULER_GAMMA + ip, abs=1e-15)
    assert d_star() == pytest.approx(
        EULER_GAMMA - 0.5 + math.log(2) - ip / 2, abs=1e-15)
    # Mahler term plus inside and outside derivative sums, each with limit
    # c*/4 - log(2)/2 per degree: -gamma/2 + 2 (c*/4 - log(2)/2) = -d*
    inside = c_star() / 4 - math.log(2) / 2
    assert abs(-EULER_GAMMA / 2 + 2 * inside - (-d_star())) <= 1e-12
    assert d_star() > 0


def test_constant_table():
    tbl = ConstantTable.compute(1e-10)
    assert abs(tbl.d_star - D_STAR) < 1e-9
    assert abs(tbl.c_star - C_STAR) < 1e-9
    assert tbl.gamma == EULER_GAMMA


def test_integral_phi_tol_guard():
    with pytest.raises(ValueError):
        integral_phi(1e-13)


@pytest.mark.parametrize("fn", [integral_phi, c_star, d_star,
                                ConstantTable.compute])
@pytest.mark.parametrize("tol", [2e-6, 1e-3, float("inf")])
def test_constants_reject_tol_above_cap(fn, tol):
    # with a loose tol quad stops at its first estimate: d_star(inf) would
    # be 2.6e-5 off, half the width of the `constants` verdict
    with pytest.raises(ValueError, match="tol must be <= 1e-06"):
        fn(tol)


def test_d_star_pin():
    # the runners read D_STAR; d_star derives it and the `constants`
    # verdict checks the derivation against a 6-digit reference
    from kacdisc import cli
    assert limits.D_STAR == float("2.708980049616457007144400806")
    assert abs(d_star(1e-12) - limits.D_STAR) <= 1e-12
    assert abs(cli.D_STAR_REFERENCE - limits.D_STAR) <= \
        cli.D_STAR_REFERENCE_TOL


def test_constants_accept_tol_at_cap():
    assert abs(d_star(limits.CONSTANTS_TOL_MAX) - D_STAR) <= 0.5e-6


# ------------------------------------------------------ prefactor integral

def test_normalization_identity():
    assert abs(normalization_identity_check(1e-8) - 1.0) <= 1e-8


def test_partial_prefactor_integral():
    from scipy.integrate import quad
    for T in (0.5, 2.0, 5.0):
        got, _ = quad(limits._prefactor, 0.0, T, epsabs=1e-12)
        expect = 1.0 / math.tanh(T) - 1.0 / T
        assert abs(got - expect) <= 1e-9


def test_prefactor_monotone_bound():
    p = limits._prefactor(0.5)
    assert 0 < p < (1 / 3) * 1.01


# --------------------------------------------------------------- s_n suite

def test_s_n_at_zero():
    pt = s_n_suite(10, 0.0)
    assert pt.s0 == pytest.approx(11 / 10, abs=1e-15)
    assert pt.s_tilde >= 0


def test_s_n_limit_cross_check():
    # closed-form limit (1-e^{-2t})/(2t) at t=2
    pt = s_n_suite(10 ** 6, 2.0)
    assert abs(pt.s0 - (1 - math.exp(-4)) / 4) <= 1e-5


def test_s_n_domain_guards():
    with pytest.raises(ValueError):
        s_n_suite(1, 0.5)
    with pytest.raises(ValueError):
        s_n_suite(100, math.log(100) ** 4 + 1)
    with pytest.raises(ValueError):
        s_n_suite(100, -0.5)


def test_s_n_suite_checks_every_t():
    with pytest.raises(ValueError):
        s_n_suite(100, float("nan"))
    with pytest.raises(ValueError):
        s_n_suite(100, np.array([0.5, math.log(100) ** 4 + 1]))
    with pytest.raises(ValueError):
        s_n_suite(100, np.array([-0.5, 0.5]))


@pytest.mark.parametrize("n", [10, 128, 257, 1000, 1601])
def test_s_n_suite_on_an_array_equals_the_scalar_calls(n):
    ts = np.linspace(0.0, math.log(n) ** 4, 37)
    arr = s_n_suite(n, ts)
    for i, t in enumerate(ts):
        pt = s_n_suite(n, float(t))
        assert type(pt.s0) is float
        assert (arr.s0[i], arr.s_tilde[i], arr.psi_n[i]) == \
            (pt.s0, pt.s_tilde, pt.psi_n)


def test_s_tilde_nonnegative_and_psi_finite():
    for n in (10, 100, 1000):
        for t in np.linspace(0.0, math.log(n) ** 2, 25):
            pt = s_n_suite(n, float(t))
            assert pt.s_tilde >= 0
            assert math.isfinite(pt.psi_n)


def test_psi_n_converges_to_psi():
    ts = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    err4 = max(abs(s_n_suite(10 ** 4, t).psi_n - psi_limit(t)) for t in ts)
    assert err4 < 0.01


# ------------------------------------------------------------ log moments

def test_gaussian_log_moment_values():
    assert abs(gaussian_log_moment(1.0) - (1 - EULER_GAMMA) / 2) < 1e-15
    s0 = math.exp(EULER_GAMMA - 1.0)
    assert abs(gaussian_log_moment(s0)) < 1e-16
    with pytest.raises(ValueError):
        gaussian_log_moment(0.0)


def test_gaussian_log_moment_monte_carlo():
    rng = np.random.default_rng(6)
    s = 2.0
    z = (rng.standard_normal(10 ** 6) + 1j * rng.standard_normal(10 ** 6)) \
        * math.sqrt(s / 2)
    samples = np.abs(z) ** 2 * np.log(np.abs(z))
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - gaussian_log_moment(s)) <= 4 * se


# ------------------------------------------------------------------- T_n

def test_T_n():
    with pytest.raises(ValueError):
        T_n(10)
    n = 10 ** 6
    assert abs(T_n(n) / math.log(n) ** 3 - 1.0) < 0.01
    for n in (6000, 10 ** 4, 10 ** 6):
        assert T_n(n) > math.log(n) ** 3


# ------------------------------------------------------- Kac-Rice integrals

def test_psi_integral_identity():
    # 2 int_0^inf Psi = (1 - gamma) + int_0^inf Phi, since the prefactor
    # integrates to exactly 1
    from scipy.integrate import quad
    head, _ = quad(psi_limit, 0.0, 0.01, epsabs=1e-13)
    main, _ = quad(psi_limit, 0.01, 100.0, epsabs=1e-11, limit=300)
    # tail: Psi ~ (1/t^2)(log S + 1-gamma)/2 with log S ~ -log(2t^3)
    g = EULER_GAMMA
    T = 100.0
    tail = ((1 - g - math.log(2)) / T - 3 * (math.log(T) + 1) / T) / 2
    total = 2 * (head + main + tail)
    assert abs(total - c_star()) <= 1e-6


def test_psi_n_integral_converges_monotonically():
    # int_0^{T_n} psi_n dt approaches int_0^inf Psi with decreasing error
    from scipy.integrate import quad
    target = c_star() / 2.0
    errs = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        val, _ = quad(lambda t: s_n_suite(n, t).psi_n, 0.0, T_n(n), limit=300)
        errs.append(abs(val - target))
    assert errs[0] > errs[1] > errs[2]


def _panel_rule(n, order):
    # kac_rice_exact_mean's panels [0, 1/2, 1, 2, 4, ..., T_n], any order
    T = T_n(n)
    edges = [0.0, *(0.5 * 2.0 ** j
                    for j in range(math.ceil(math.log2(2.0 * T)))), T]
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        half = 0.5 * (b - a)
        t = a + half * (x + 1.0)
        total += half * float(w @ limits._kac_rice_integrand(n, t))
    return total


# the tight quad reports roundoff at n = 97 while its value still agrees
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n", [97, 128, 256, 1024])
def test_kac_rice_exact_mean_matches_tight_quad(n):
    from scipy.integrate import quad
    ref, _ = quad(lambda t: limits._kac_rice_integrand(n, t), 0.0, T_n(n),
                  epsabs=1e-15, epsrel=1e-14, limit=400)
    assert abs(kac_rice_exact_mean(n) - ref) <= 1e-13


@pytest.mark.parametrize("n", [97, 128, 256, 1024])
def test_kac_rice_rule_error_against_a_higher_order(n):
    got = kac_rice_exact_mean(n)
    assert abs(got - _panel_rule(n, 20)) <= 1e-15
    assert abs(got - _panel_rule(n, 30)) <= 1e-14


def test_kac_rice_exact_mean_domain():
    # Gauss-Legendre nodes never reach T_n, so this is the function's own
    # check: n = 96 has T_n = 447.3 > log^4 n = 434.0, n = 97 has 421.3 <= 438
    for n in (1, 2, 50, 96):
        with pytest.raises(ValueError):
            kac_rice_exact_mean(n)
    assert math.isfinite(kac_rice_exact_mean(97))


def test_kac_rice_quadratures_run():
    for n in (128, 256, 1024):
        e = kac_rice_exact_mean(n)
        assert math.isfinite(e) and e < 0


def test_kac_rice_exact_mean_matches_monte_carlo():
    # independent check of the conditional-moment route at small n
    from kacdisc.polynomials import (GAUSSIAN_COMPLEX, CoefficientDistribution,
                                     sample_kac)
    from kacdisc.polynomials import log_abs_deriv
    from kacdisc.rootfind import canonical_annulus, find_roots
    n, trials = 128, 300
    dist = CoefficientDistribution(GAUSSIAN_COMPLEX)
    lo, hi = canonical_annulus(n)
    vals = []
    for t in range(trials):
        p = sample_kac(dist, n, 4242, t)
        rs = find_roots(p)
        mod = np.abs(rs.roots)
        sel = (mod >= lo) & (mod <= hi)
        vals.append(float(np.sum(log_abs_deriv(p, rs.roots[sel])
                                 - 1.5 * math.log(n))) / n)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - kac_rice_exact_mean(n)) <= 4 * se
