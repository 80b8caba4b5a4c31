import math

import numpy as np
import pytest

from kacdisc.discriminant import (MIN_QUAD_FACTOR, decompose,
                                  double_root_guard, exact_discriminant,
                                  mahler, quad_grid_points)
from kacdisc.errors import (DoubleRootError, GridCollisionError,
                            OracleCapError)
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                                 CoefficientDistribution, Coefficients,
                                 circle_values, log_abs_deriv, sample_kac)
from kacdisc.rootfind import ON_CIRCLE_GUARD, find_roots


def coeffs(*vals):
    return Coefficients(np.array(vals, dtype=np.float64))


def log_disc(p):
    """The direct total that decompose reports beside its split."""
    return decompose(p, find_roots(p), 16 * (p.degree + 1)).log_abs_disc_direct


def random_int_poly(rng, max_degree=20):
    while True:
        n = int(rng.integers(2, max_degree + 1))
        c = rng.integers(-9, 10, n + 1).astype(np.float64)
        if c[-1] == 0 or c[0] == 0:
            continue
        p = coeffs(*c)
        if exact_discriminant(p) != 0:
            return p


# --------------------------------------------------------- log|disc| route

def test_log_disc_x2_minus_1():
    p = coeffs(-1.0, 0.0, 1.0)
    assert abs(log_disc(p) - math.log(4)) < 1e-12


def test_log_disc_x2_plus_x_plus_1():
    p = coeffs(1.0, 1.0, 1.0)
    assert abs(log_disc(p) - math.log(3)) < 1e-12


def test_log_disc_raises_on_double_root():
    p = coeffs(1.0, -2.0, 1.0)
    with pytest.raises(DoubleRootError):
        log_disc(p)


# ------------------------------------------------------------ exact oracle

def test_exact_known_values():
    assert exact_discriminant(coeffs(0.0, -1.0, 0.0, 1.0)) == 4      # x^3 - x
    assert exact_discriminant(coeffs(1.0, -2.0, 1.0)) == 0           # (x-1)^2
    assert exact_discriminant(coeffs(1.0, 1.0, 1.0)) == -3           # x^2+x+1
    assert exact_discriminant(coeffs(-4.0, 0.0, 1.0)) == 16          # x^2-4
    assert exact_discriminant(coeffs(2.0, 3.0)) == 1                 # degree 1


def test_exact_oracle_guards():
    with pytest.raises(TypeError):
        exact_discriminant(coeffs(0.5, 1.0))
    big = np.zeros(66)
    big[0] = 1.0
    big[65] = 1.0
    with pytest.raises(OracleCapError):
        exact_discriminant(Coefficients(big))


def test_exact_vs_float_route():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = random_int_poly(rng)
        exact = exact_discriminant(p)
        target = math.log(abs(exact))
        got = log_disc(p)
        assert abs(got - target) <= 1e-8 * (1 + abs(target))


def test_disc_magnitude_reciprocal_invariant():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_int_poly(rng)
        reversed_p = Coefficients(p.coeffs[::-1])
        assert abs(exact_discriminant(p)) == abs(exact_discriminant(reversed_p))


# ----------------------------------------------------------- decomposition

def test_decompose_x2_minus_4():
    p = coeffs(-4.0, 0.0, 1.0)
    br = decompose(p, find_roots(p), 64)
    assert br.sum_inside == 0.0
    # outside part: log|f'(2)| + log|f'(-2)| - 2 * 1.5 log 2 (the n-2 power is 0)
    assert abs(br.sum_outside - (2 * math.log(4) - 3 * math.log(2))) < 1e-12
    assert abs(br.mahler_term) < 1e-12
    assert abs(br.total_log_abs_disc - math.log(16)) < 1e-10


def test_decompose_matches_direct_route():
    rng_trials = 12
    dist = CoefficientDistribution(RADEMACHER)
    done = 0
    trial = 0
    while done < rng_trials:
        p = sample_kac(dist, 30, 31, trial)
        trial += 1
        rs = find_roots(p)
        if np.min(np.abs(np.abs(rs.roots) - 1.0)) < 5e-4:
            continue  # quadrature bound needs some distance from the circle
        br = decompose(p, rs, 1 << 16)
        direct = br.log_abs_disc_direct
        assert abs(br.total_log_abs_disc - direct) <= 1e-8 * (1 + abs(direct))
        recomputed = (br.total_log_abs_disc - 2 * 30 * math.log(30)) / 30
        assert recomputed == br.statistic
        done += 1


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [200, 800])
def test_reversal_cross_checks_the_solver(kind, n):
    # q(z) = z^n f(1/z) has the roots 1/alpha and q'(1/alpha) =
    # -alpha^-(n-2) f'(alpha), so sum_outside(f) is sum_inside(q) and
    # disc(q) = disc(f): two independent solves that must agree.  Both
    # agreed to <= 1.9e-15 relative in the measurement of ROADMAP item 13
    # (these laws and degrees, 3 trials each) and to <= 2.2e-15 on the
    # trials drawn here.
    for trial in range(3):
        p = sample_kac(CoefficientDistribution(kind), n, 29, trial)
        q = Coefficients(p.coeffs[::-1])
        bp = decompose(p, find_roots(p), 16 * (n + 1))
        bq = decompose(q, find_roots(q), 16 * (n + 1))
        assert (abs(bp.sum_outside - bq.sum_inside)
                <= 1e-12 * abs(bp.sum_outside))
        assert (abs(bp.log_abs_disc_direct - bq.log_abs_disc_direct)
                <= 1e-12 * abs(bp.log_abs_disc_direct))


def test_decompose_guards():
    p = coeffs(-1.0, 0.0, 1.0)  # roots on the circle: no split
    br = decompose(p, find_roots(p), 64)
    assert all(map(math.isnan, (br.sum_inside, br.sum_outside, br.mahler_term)))
    assert br.total_log_abs_disc == br.log_abs_disc_direct
    assert abs(br.log_abs_disc_direct - math.log(4)) < 1e-12
    pd = coeffs(4.0, -4.0, 1.0)  # (x-2)^2
    with pytest.raises(DoubleRootError):
        decompose(pd, find_roots(pd), 64)
    with pytest.raises(ValueError):
        decompose(coeffs(1.0, 1.0), find_roots(coeffs(1.0, 1.0)), 64)
    # 16 points per coefficient is the quadrature floor
    with pytest.raises(ValueError, match="quad_points must be at least"):
        decompose(p, find_roots(p), 47)


# ------------------------------------------------------------------ Mahler

def test_mahler_x_minus_2():
    p = coeffs(-2.0, 1.0)
    res = mahler(p, find_roots(p), 64)
    assert abs(res.log_m_quadrature - math.log(2)) < 1e-12
    assert abs(res.log_m_roots - math.log(2)) < 1e-12
    # 16 points per coefficient is the quadrature floor
    with pytest.raises(ValueError, match="quad_points must be at least"):
        mahler(p, find_roots(p), 31)


def test_mahler_refuses_a_root_on_the_circle():
    # the check measures each root's distance to the circle, not to a
    # grid point: x^2 - 1 has its roots +-1 on it
    p = coeffs(-1.0, 0.0, 1.0)
    with pytest.raises(GridCollisionError,
                       match=r"a root lies within 1e-12 of the unit circle "
                             r"\(distance 0\.0e\+00\)"):
        mahler(p, find_roots(p), 64)
    # (z - (1 + 5e-13))(z - 3) has a root within ON_CIRCLE_GUARD of the
    # circle, where decompose leaves its split undefined
    r = 1.0 + 5e-13
    p = coeffs(3.0 * r, -(r + 3.0), 1.0)
    rs = find_roots(p)
    assert 0 < np.min(np.abs(np.abs(rs.roots) - 1.0)) <= ON_CIRCLE_GUARD
    assert math.isnan(decompose(p, rs, 64).sum_inside)
    with pytest.raises(GridCollisionError,
                       match=r"within 1e-12 of the unit circle "
                             r"\(distance 5\.0e-13\)"):
        mahler(p, rs, 64)


def test_mahler_golden_ratio():
    p = coeffs(-1.0, -1.0, 1.0)  # x^2 - x - 1
    res = mahler(p, find_roots(p), 64)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(res.log_m_roots - math.log(golden)) < 1e-12


def test_mahler_cross_route_degree50():
    dist = CoefficientDistribution(RADEMACHER)
    done = trial = 0
    while done < 10:
        p = sample_kac(dist, 50, 77, trial)
        trial += 1
        rs = find_roots(p)
        try:
            res = mahler(p, rs, 1 << 15)
        except GridCollisionError:
            continue  # e.g. cyclotomic factor: root exactly on the circle
        if res.nearest_root_distance_to_circle < 1e-3:
            continue
        assert abs(res.log_m_quadrature - res.log_m_roots) <= 1e-6
        done += 1


def _is_11_smooth(m):
    for prime in (2, 3, 5, 7, 11):
        while m % prime == 0:
            m //= prime
    return m == 1


def test_quad_grid_is_smallest_11_smooth_length_at_or_above_floor():
    m = 0
    for n in range(1, 5001):
        floor = MIN_QUAD_FACTOR * (n + 1)
        m = max(m, floor)
        while not _is_11_smooth(m):
            m += 1
        assert quad_grid_points(floor) == m >= floor
    # the floors at n = 800 (801 = 3^2 89) and n = 1600 (1601 is prime)
    assert quad_grid_points(16 * 801) == 12936 == 2 ** 3 * 3 * 7 ** 2 * 11
    assert quad_grid_points(16 * 1601) == 25725 == 3 * 5 ** 2 * 7 ** 3


@pytest.mark.parametrize("n", [15, 20, 99, 800])
def test_decompose_and_mahler_average_on_the_quad_grid(n):
    # 16 (n+1) = 256, 336 and 1600 are 11-smooth, so the grid is the floor
    # and decompose is unchanged; 16 801 = 12816 rounds up to 12936
    q = 16 * (n + 1)
    grid = quad_grid_points(q)
    assert (grid == q) == (n != 800)
    p = sample_kac(CoefficientDistribution(RADEMACHER), n, 3, 0)
    rs = find_roots(p)
    br = decompose(p, rs, q)
    mean = float(np.mean(np.log(np.abs(circle_values(p.coeffs, grid)))))
    assert br.mahler_term == (n - 2) * (mean - 0.5 * math.log(n))
    assert br.total_log_abs_disc == (br.sum_inside + br.sum_outside
                                     + br.mahler_term + br.log_n_term)
    assert mahler(p, rs, q).log_m_quadrature == mean


def test_mahler_trial_guard_reads_the_quadrature_grid():
    # at n = 12 the floor 208 = 2^4 13 rounds up to 210 = 2 3 5 7;
    # z^12 - zeta^12 has the root zeta = exp(2 pi i / 210), a point of the
    # 210-point grid but of no 208-point one
    from kacdisc.experiments import ExperimentConfig, _mahler_trial
    n = 12
    config = ExperimentConfig(dist=CoefficientDistribution(GAUSSIAN_COMPLEX),
                              n_ladder=(n,), trials=1)
    assert quad_grid_points(MIN_QUAD_FACTOR * (n + 1)) == 210
    c = np.zeros(n + 1, dtype=np.complex128)
    c[0], c[n] = -np.exp(2j * np.pi * n / 210), 1.0
    p = Coefficients(c)
    assert np.min(np.abs(circle_values(p.coeffs, 208))) > 1e-3
    assert _mahler_trial(config, p) == {"status": "grid_root"}
    # off the grid, the statistic is the mean on the same 210 points
    p = sample_kac(CoefficientDistribution(RADEMACHER), n, 3, 0)
    mean = float(np.mean(np.log(np.abs(circle_values(p.coeffs, 210)))))
    assert _mahler_trial(config, p) == {"statistic":
                                        mean - 0.5 * math.log(n)}


# ------------------------------------------------------------- root guards

def guard(p):
    rs = find_roots(p)
    return double_root_guard(rs, p, log_abs_deriv(p, rs.roots))


def test_double_root_guard_basic():
    assert guard(coeffs(1.0, -2.0, 1.0))
    assert not guard(coeffs(-1.0, 0.0, 1.0))


def test_double_root_guard_rarely_fires():
    dist = CoefficientDistribution(RADEMACHER)
    fires = 0
    for t in range(300):
        p = sample_kac(dist, 200, 404, t)
        fires += guard(p)
    assert fires == 0
