import math

import numpy as np
import pytest

from kacdisc.discriminant import (DiscriminantBreakdown, decompose,
                                  double_root_guard, exact_discriminant,
                                  log_abs_discriminant, mahler)
from kacdisc.errors import DoubleRootError, OracleCapError
from kacdisc.polynomials import (RADEMACHER, CoefficientDistribution,
                                 Coefficients, log_abs_deriv, reciprocal,
                                 sample_kac)
from kacdisc.rootfind import find_roots


def coeffs(*vals):
    return Coefficients(np.array(vals, dtype=np.float64))


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
    assert abs(log_abs_discriminant(p, find_roots(p)) - math.log(4)) < 1e-12


def test_log_disc_x2_plus_x_plus_1():
    p = coeffs(1.0, 1.0, 1.0)
    assert abs(log_abs_discriminant(p, find_roots(p)) - math.log(3)) < 1e-12


def test_log_disc_raises_on_double_root():
    p = coeffs(1.0, -2.0, 1.0)
    with pytest.raises(DoubleRootError):
        log_abs_discriminant(p, find_roots(p))


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
        got = log_abs_discriminant(p, find_roots(p))
        assert abs(got - target) <= 1e-8 * (1 + abs(target))


def test_disc_magnitude_reciprocal_invariant():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_int_poly(rng)
        assert abs(exact_discriminant(p)) == abs(exact_discriminant(reciprocal(p)))


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
        direct = log_abs_discriminant(p, rs)
        assert abs(br.total_log_abs_disc - direct) <= 1e-8 * (1 + abs(direct))
        recomputed = (br.total_log_abs_disc - 2 * 30 * math.log(30)) / 30
        assert recomputed == br.theorem_statistic
        done += 1


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


def test_breakdown_csv_row():
    br = DiscriminantBreakdown(3, 0.5, -0.5, 1.0, 2.0, 3.0, -0.25, 3.0)
    row = br.csv_row().split(",")
    assert row[0] == "3" and float(row[-1]) == -0.25 and len(row) == 7


# ------------------------------------------------------------------ Mahler

def test_mahler_x_minus_2():
    p = coeffs(-2.0, 1.0)
    res = mahler(p, find_roots(p), 64)
    assert abs(res.log_m_quadrature - math.log(2)) < 1e-12
    assert abs(res.log_m_roots - math.log(2)) < 1e-12


def test_mahler_golden_ratio():
    p = coeffs(-1.0, -1.0, 1.0)  # x^2 - x - 1
    res = mahler(p, find_roots(p), 64)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(res.log_m_roots - math.log(golden)) < 1e-12


def test_mahler_cross_route_degree50():
    from kacdisc.errors import GridCollisionError
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
