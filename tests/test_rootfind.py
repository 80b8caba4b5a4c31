import math

import numpy as np
import pytest

from kacdisc.errors import InvalidBoundError
from kacdisc import rootfind
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, RADEMACHER,
                                 CoefficientDistribution, Coefficients,
                                 newton_ratio, reciprocal, sample_kac)
from kacdisc.rootfind import (RootSet, erdos_turan_bound, find_roots,
                              omega_annulus, root_stats)


def coeffs(*vals):
    return Coefficients(np.array(vals, dtype=np.float64))


def sorted_roots(rs):
    return np.array(sorted(rs.roots, key=lambda z: (round(z.real, 9), round(z.imag, 9))))


def test_quadratic():
    rs = find_roots(coeffs(-1.0, 0.0, 1.0))
    assert np.allclose(sorted_roots(rs), [-1.0, 1.0], atol=1e-12)
    assert np.all(rs.residuals <= 1e-12)


def test_cubic_with_zero_root():
    rs = find_roots(coeffs(0.0, -1.0, 0.0, 1.0))  # x^3 - x
    assert np.allclose(sorted_roots(rs), [-1.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("vals", [(0.0, 0.0, 1.0), (0.0,) * 5 + (-3.0,),
                                  (0.0, 2.0 + 1.0j)])
def test_pure_monomial_has_exact_zero_roots(vals):
    # c*z^m: m exact zeros, no Aberth solve
    p = Coefficients(np.array(vals))
    rs = find_roots(p)
    assert rs.iterations == 0
    assert rs.count == p.degree
    assert np.all(rs.roots == 0) and np.all(rs.residuals == 0)


def test_reconstruction_oracle_degree50():
    # product of (z - alpha_j) over found roots must reproduce f / c_n
    p = sample_kac(CoefficientDistribution(RADEMACHER), 50, 7, 3)
    rs = find_roots(p)
    assert np.max(rs.residuals) <= 1e-10
    rng = np.random.default_rng(1)
    zs = 0.9 * np.exp(2j * np.pi * rng.random(20))
    for z in zs:
        prod = np.prod(z - rs.roots)
        direct = np.polyval(p.coeffs[::-1], z) / p.coeffs[-1]
        assert abs(prod - direct) <= 1e-8 * abs(direct)


def test_vieta_degree200():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 200, 11, 0)
    rs = find_roots(p)
    c = p.coeffs
    s = np.sum(rs.roots)
    assert abs(s - (-c[-2] / c[-1])) <= 1e-8 * (1 + abs(c[-2] / c[-1]))
    prod = np.prod(rs.roots)
    expected = (-1) ** 200 * c[0] / c[-1]
    assert abs(prod - expected) <= 1e-8 * (1 + abs(expected))


def test_reciprocal_roots_match():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 40, 5, 1)
    r1 = find_roots(p)
    r2 = find_roots(reciprocal(p))
    inv = np.array(sorted(1.0 / r1.roots, key=lambda z: (z.real, z.imag)))
    got = np.array(sorted(r2.roots, key=lambda z: (z.real, z.imag)))
    assert np.max(np.abs(inv - got)) <= 1e-8


def test_conjugate_pairing():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 31, 2, 2)
    rs = find_roots(p)
    complex_roots = rs.roots[np.abs(rs.roots.imag) > 0]
    ups = sorted(z for z in complex_roots if z.imag > 0)
    downs = sorted(np.conj(z) for z in complex_roots if z.imag < 0)
    assert len(ups) == len(downs)
    assert np.max(np.abs(np.array(ups) - np.array(downs))) <= 1e-9


def test_root_stats_unit_circle():
    n = 32
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    rs = RootSet(roots, np.zeros(n), 0)
    stats = root_stats(rs, n, annuli=[(0.9, 1.1)])
    assert stats.annulus_counts[(0.9, 1.1)] == n
    assert stats.discrepancy <= 1.0
    assert stats.on_circle_count == n
    assert stats.inside_count == 0 and stats.outside_count == 0


def test_root_stats_inside_outside():
    rs = find_roots(coeffs(-4.0, 0.0, 1.0))  # x^2 - 4
    stats = root_stats(rs, 2)
    assert stats.inside_count == 0 and stats.outside_count == 2


def test_root_stats_permutation_invariant():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 24, 9, 0)
    rs = find_roots(p)
    perm = np.random.default_rng(0).permutation(rs.count)
    rs2 = RootSet(rs.roots[perm].copy(), rs.residuals[perm].copy(),
                  rs.iterations)
    a = root_stats(rs, 24, annuli=[(0.5, 1.5)])
    b = root_stats(rs2, 24, annuli=[(0.5, 1.5)])
    assert a == b


def test_annulus_fraction_large_n():
    # most roots lie within log^2(n)/n of the unit circle
    n = 2000
    p = sample_kac(CoefficientDistribution(RADEMACHER), n, 3, 0)
    rs = find_roots(p)
    lo, hi = omega_annulus(n, math.log(n) ** 2)
    stats = root_stats(rs, n, annuli=[(lo, hi)])
    assert stats.annulus_counts[(lo, hi)] / n >= 0.9


def test_erdos_turan_log_term_zero():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 100, 1, 0)
    b = erdos_turan_bound(p, 1.0)  # sqrt(|c0 cn|) = 1
    assert abs(b - 2.0 / math.pi * 10.0) < 1e-12


def test_erdos_turan_monotone():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 100, 1, 0)
    assert erdos_turan_bound(p, 5.0) < erdos_turan_bound(p, 10.0)


def test_erdos_turan_invalid():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 100, 1, 0)
    with pytest.raises(InvalidBoundError):
        erdos_turan_bound(p, 0.5)


def test_companion_fallback_converges():
    # starve the iteration so the eigenvalue fallback must finish the job
    p = sample_kac(CoefficientDistribution(RADEMACHER), 30, 13, 0)
    rs = find_roots(p, max_iter=1)
    assert np.max(rs.residuals) <= 1e-12


def test_nonconvergence_reports_worst_residual():
    from kacdisc.errors import NonConvergenceError
    p = sample_kac(CoefficientDistribution(RADEMACHER), 12, 13, 1)
    with pytest.raises(NonConvergenceError) as exc:
        find_roots(p, tol=1e-30, max_iter=5)
    assert exc.value.worst_residual > 0


def _ref_aberth_iterate(p, roots, tol, max_iter):
    """Reference loop: every root updated in every sweep, full n x n pair
    matrix, stop once the largest relative step is below 0.1*tol."""
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        w = newton_ratio(p, roots)
        w[~np.isfinite(w)] = 0.0
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) > 1e-300, w / denom, w)
        step[~np.isfinite(step)] = 0.0
        roots = roots - step
        if np.max(np.abs(step) / (1.0 + np.abs(roots))) < 0.1 * tol:
            break
    return roots, iterations


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [128, 800])
def test_freezing_aberth_matches_unfrozen_loop(kind, n):
    p = sample_kac(CoefficientDistribution(kind), n, 4, 0)
    guesses = rootfind._initial_guesses(p)
    tol = rootfind.DEFAULT_TOL
    ref, ref_iters = _ref_aberth_iterate(p, guesses, tol, rootfind.DEFAULT_MAX_ITER)
    got, iters = rootfind._aberth_iterate(p, guesses, tol, rootfind.DEFAULT_MAX_ITER)
    assert iters == ref_iters
    ref = rootfind._newton_polish(p, ref)
    got = rootfind._newton_polish(p, got)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


def test_pair_sums_match_full_matrix_rows():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    full = (1.0 / diff).sum(axis=1)
    rows = np.array([149, 0, 7, 64, 65, 128])
    buf = np.empty((4, z.size), dtype=np.complex128)  # several blocks
    assert rootfind._pair_sums(z, rows, buf).tobytes() == full[rows].tobytes()


def test_aberth_iterate_keeps_guesses_and_respects_max_iter():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 60, 2, 0)
    guesses = rootfind._initial_guesses(p)
    before = guesses.copy()
    roots, iters = rootfind._aberth_iterate(p, guesses, 1e-12, 3)
    assert iters == 3
    assert np.array_equal(guesses, before)
    ref, _ = _ref_aberth_iterate(p, guesses, 1e-12, 3)
    assert roots.tobytes() == ref.tobytes()  # nothing freezes in 3 sweeps


@pytest.mark.parametrize("n", [2, 64, 65, 300])
def test_close_root_pairs_match_full_matrix(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z[-1] = z[0] * (1.0 + 1e-7)  # one close pair across the row blocks
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, np.inf)
    for rel in (1e-9, 1e-5, 0.1):
        full = np.argwhere(diff <= rel * (1.0 + np.abs(z)[:, None]))
        assert np.array_equal(rootfind.close_root_pairs(z, rel), full)
