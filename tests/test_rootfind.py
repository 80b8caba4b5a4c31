import math
import warnings

import mpmath
import numpy as np
import pytest

from kacdisc.errors import InvalidBoundError
from kacdisc import rootfind
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                                 CoefficientDistribution, Coefficients,
                                 newton_ratio, relative_residual, sample_kac)
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
    r2 = find_roots(Coefficients(p.coeffs[::-1]))
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
    stats = root_stats(rs, n, (0.9, 1.1))
    assert stats.annulus_count == n
    assert stats.discrepancy <= 1.0
    assert stats.inside_count == 0 and stats.outside_count == 0


def test_root_stats_inside_outside():
    rs = find_roots(coeffs(-4.0, 0.0, 1.0))  # x^2 - 4
    stats = root_stats(rs, 2, (0.5, 1.5))
    assert stats.annulus_count == 0
    assert stats.inside_count == 0 and stats.outside_count == 2


def test_root_stats_permutation_invariant():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 24, 9, 0)
    rs = find_roots(p)
    perm = np.random.default_rng(0).permutation(rs.count)
    rs2 = RootSet(rs.roots[perm].copy(), rs.residuals[perm].copy(),
                  rs.iterations)
    a = root_stats(rs, 24, (0.5, 1.5))
    b = root_stats(rs2, 24, (0.5, 1.5))
    assert a == b


def test_annulus_fraction_large_n():
    # most roots lie within log^2(n)/n of the unit circle
    n = 2000
    p = sample_kac(CoefficientDistribution(RADEMACHER), n, 3, 0)
    rs = find_roots(p)
    stats = root_stats(rs, n, omega_annulus(n))
    assert stats.annulus_count / n >= 0.9


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
    with pytest.raises(InvalidBoundError, match="nonzero first and last"):
        erdos_turan_bound(Coefficients(np.array([0.0, 1.0, 1.0])), 5.0)


def test_nonconvergence_reports_worst_residual(monkeypatch):
    # a starved solve raises: no second solver finishes the job
    from kacdisc.errors import NonConvergenceError
    for max_iter, n, seed, trial, tol in ((5, 12, 13, 1, 1e-30),
                                          (1, 30, 13, 0, rootfind.DEFAULT_TOL)):
        monkeypatch.setattr(rootfind, "DEFAULT_MAX_ITER", max_iter)
        p = sample_kac(CoefficientDistribution(RADEMACHER), n, seed, trial)
        with pytest.raises(NonConvergenceError) as exc:
            find_roots(p, tol=tol)
        assert exc.value.worst_residual > 0


def _ref_aberth_iterate(p, roots, tol, max_iter):
    """Reference loop: every root updated in every sweep, full n x n pair
    matrix, stop once the largest relative step is below 0.1*tol.  An
    infinite Newton ratio takes the step's limit -1/s."""
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        w = newton_ratio(p, roots)
        far = np.isinf(w)
        w[~np.isfinite(w)] = 0.0
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) > 1e-300, w / denom, w)
        step[far] = -1.0 / s[far]
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
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [200, 800])
def test_frozen_solve_needs_no_polish(kind, n):
    # the sweep that froze a root landed it at machine precision: one more
    # Newton step moves none by more than 1e-15 relative
    for seed in range(4):
        p = sample_kac(CoefficientDistribution(kind), n, seed, 0)
        rs = find_roots(p)
        assert rs.iterations < rootfind.DEFAULT_MAX_ITER
        step = newton_ratio(p, rs.roots)
        assert np.max(np.abs(step) / np.abs(rs.roots)) <= 1e-15
        assert np.max(rs.residuals) <= 1e-13


def test_stalled_solve_takes_the_one_finishing_path():
    # sum z^k / k! at degree 40 uses every sweep; its roots are still the
    # Aberth roots symmetrized and collapsed, with nothing in between, and
    # pass the residual certificate
    c = np.array([1.0 / math.factorial(k) for k in range(41)])
    rs = find_roots(Coefficients(c))
    assert rs.iterations == rootfind.DEFAULT_MAX_ITER
    p = rootfind._unit_scaled(c)
    roots, _ = rootfind._aberth_iterate(p, rootfind._initial_guesses(p),
                                        rootfind.DEFAULT_TOL,
                                        rootfind.DEFAULT_MAX_ITER)
    roots = rootfind._collapse_certified_double_roots(
        p, rootfind._symmetrize_conjugates(roots))
    assert rs.roots.tobytes() == roots.tobytes()
    assert np.max(rs.residuals) <= rootfind.DEFAULT_TOL


# Forward error of _pair_sums in the standard model (u = 2^-53, gamma_k =
# k u / (1 - k u); Higham, "Accuracy and Stability of Numerical Algorithms",
# 2nd ed., 3.1).  Each term 1/(z_i - z_j) takes one rounded complex
# subtraction (relative error u, so a factor within gamma_1 after the
# reciprocal) and numpy's complex division 1/d by Smith's formula (within
# gamma_6, as derived in tests/test_polynomials.py): gamma_7 in all.  Row
# i's sum adds its n - 1 terms, the diagonal's exact zero and the initial
# zero of the output along some tree of row sums, column sums and
# subtractions, whatever the block split; with at most n additions on any
# path, each part of the sum is within gamma_n of the sum of that part's
# magnitudes, and so the complex sum within gamma_n sum_j |t_j| (Minkowski).
# Hence |computed - exact| <= gamma_(n+7) sum_(j != i) |1/(z_i - z_j)|.
_U = 2.0 ** -53


def _pair_sum_reference(z, rows):
    """50-digit sums and their error bounds for the given rows."""
    n = z.size
    g = (n + 7) * _U / (1.0 - (n + 7) * _U)
    zm = [mpmath.mpc(x.real, x.imag) for x in z]
    exact, bound = [], []
    with mpmath.workdps(50):
        for i in rows:
            terms = [1 / (zm[i] - zm[j]) for j in range(n) if j != i]
            exact.append(complex(mpmath.fsum(terms)))
            bound.append(g * float(mpmath.fsum(abs(t) for t in terms)))
    return np.array(exact), np.array(bound)


def test_pair_sums_match_full_matrix_rows(monkeypatch):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    cases = [np.arange(150),                    # every root active
             np.array([149, 0, 7, 64, 65, 128]),  # unsorted, the rest frozen
             np.array([37]),                    # one row
             rng.permutation(150)[:70]]         # many blocks, 80 frozen
    for block in (4, 64):
        monkeypatch.setattr(rootfind, "PAIR_BLOCK", block)
        for rows in cases:
            got = rootfind._pair_sums(z, rows)
            exact, bound = _pair_sum_reference(z, rows)
            assert got.shape == rows.shape
            assert np.all(np.abs(got - exact) <= bound)


def test_pair_sums_nonfinite_on_duplicate_rows(monkeypatch):
    # an exact duplicate divides by zero in its pair only: the same rows are
    # non-finite as in the full matrix, whichever of the pair is frozen
    rng = np.random.default_rng(5)
    z = rng.standard_normal(90) + 1j * rng.standard_normal(90)
    z[[10, 75]] = z[3]
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    monkeypatch.setattr(rootfind, "PAIR_BLOCK", 8)
    with np.errstate(divide="ignore", invalid="ignore"):
        full = (1.0 / diff).sum(axis=1)
        for rows in (np.arange(90), np.array([75, 2, 10, 60]),
                     np.array([3]), np.array([5, 6])):
            got = rootfind._pair_sums(z, rows)
            assert np.array_equal(np.isfinite(got), np.isfinite(full[rows]))


def _iterates(kind, n):
    """Initial, 3-sweep and converged Aberth iterates of one polynomial."""
    p = rootfind._unit_scaled(
        sample_kac(CoefficientDistribution(kind), n, 2, 0).coeffs)
    start = rootfind._initial_guesses(p)
    tol, max_iter = rootfind.DEFAULT_TOL, rootfind.DEFAULT_MAX_ITER
    return {"initial": start,
            "3-sweep": rootfind._aberth_iterate(p, start, tol, 3)[0],
            "converged": rootfind._aberth_iterate(p, start, tol, max_iter)[0]}


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [800, 1600])
def test_node_pair_sums_match_mpmath(kind, n):
    # the 12 rows farthest from the exact route's sums and 12 random rows
    # are checked against 50-digit sums; 2.6e-11 was the worst seen
    rng = np.random.default_rng(n)
    for stage, z in _iterates(kind, n).items():
        got = rootfind._node_pair_sums(z, np.arange(n))
        assert got is not None, stage
        gap = np.abs(got - rootfind._pair_sums(z, np.arange(n)))
        rows = np.concatenate([np.argsort(gap)[-12:],
                               rng.choice(n, 12, replace=False)])
        exact, _ = _pair_sum_reference(z, rows)
        assert np.max(np.abs(got[rows] - exact) / np.abs(exact)) <= 1e-10, stage


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [3200, 6400])
def test_node_route_holds_at_the_top_of_the_ladder(kind, n):
    # the four-way tree's coefficients stay under NODE_COEFF_MAX, so the
    # node route runs, and its sums agree with the exact ones on 32 rows;
    # 2.3e-11 was the worst seen
    rng = np.random.default_rng(n)
    for stage, z in _iterates(kind, n).items():
        got = rootfind._node_pair_sums(z, np.arange(n))
        assert got is not None, stage
        rows = rng.choice(n, 32, replace=False)
        exact = rootfind._pair_sums(z, rows)
        assert np.max(np.abs(got[rows] - exact) / np.abs(exact)) <= 1e-9, stage


def test_node_coeffs_match_mpmath_product():
    # power-of-two and ragged rows of slots, with an even number of levels
    # (all four-way) and an odd one (a last two-way level)
    rng = np.random.default_rng(11)
    for n in (1, 2, 16, 17, 33, 100, 257):
        theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
        y = rng.uniform(0.9, 1.1, n) * np.exp(1j * theta)
        # multiplied in angle order, the partial products grow to about
        # 2^n before they cancel, so 120 digits keep 50 at n = 257
        with mpmath.workdps(120):
            ref = [mpmath.mpc(1)]
            for x in y:
                ref = [a - mpmath.mpc(x.real, x.imag) * b
                       for a, b in zip([0] + ref, ref + [0])]
            ref = np.array([complex(c) for c in ref])
        got = rootfind._node_coeffs(rng.permutation(y))
        assert got.shape == (n + 1,)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n


def test_node_pair_sums_off_the_unit_circle(monkeypatch):
    # roots near a circle of radius r != 1 are scaled by their geometric
    # mean modulus: scaled by the nearest power of two instead, the sums at
    # r = 0.9 were wrong in the first digit
    rng = np.random.default_rng(3)
    n = 700
    for r in (0.75, 0.9, 1.1, 1.3):
        theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
        z = r * np.exp(1j * theta)
        got = rootfind._node_pair_sums(z, np.arange(n))
        exact = rootfind._pair_sums(z, np.arange(n))
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-10, r
    # |c_0 / c_n| = 1e-30: Aberth starts on the circle of radius 0.906
    c = sample_kac(CoefficientDistribution(RADEMACHER), n, 1, 0).coeffs.copy()
    c[-1] = 1e30
    p = rootfind._unit_scaled(c)
    start = rootfind._initial_guesses(p)
    iters = []
    for pairs in (rootfind.NODE_ROUTE_PAIRS, math.inf):
        monkeypatch.setattr(rootfind, "NODE_ROUTE_PAIRS", pairs)
        iters.append(rootfind._aberth_iterate(p, start, rootfind.DEFAULT_TOL,
                                              rootfind.DEFAULT_MAX_ITER)[1])
    assert iters[0] == iters[1]


def test_node_route_falls_back_on_scattered_points(monkeypatch):
    # 100 points at uniformly random angles: the node polynomial's middle
    # coefficients are near sqrt(C(100, 50)) ~ 1e14, past NODE_COEFF_MAX.
    # With an exact 0 among points spread evenly in angle the geometric
    # mean modulus is 0 (its log2 -inf); only the first sweep sees it, as
    # the 0 moves.
    rng = np.random.default_rng(8)
    scattered = np.exp(2j * np.pi * rng.random(100))
    zero = np.exp(2j * np.pi * (np.arange(100) + rng.uniform(-0.3, 0.3, 100))
                  / 100)
    zero[40] = 0.0
    p = sample_kac(CoefficientDistribution(RADEMACHER), 100, 1, 0)
    for z, sweeps in ((scattered, 2), (zero, 1)):
        assert rootfind._node_pair_sums(z, np.arange(100)) is None
        got = []
        for pairs in (0, math.inf):  # every sweep tries the node route, or none
            monkeypatch.setattr(rootfind, "NODE_ROUTE_PAIRS", pairs)
            got.append(rootfind._aberth_iterate(p, z, rootfind.DEFAULT_TOL,
                                                sweeps)[0])
        assert got[0].tobytes() == got[1].tobytes()


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [800, 1600])
def test_node_route_takes_the_exact_route_path(monkeypatch, kind, n):
    # same sweeps and the same roots to 1e-14 relative
    taken = []
    node_pair_sums = rootfind._node_pair_sums

    def counted(roots, rows):
        s = node_pair_sums(roots, rows)
        taken.append(s is not None)
        return s

    monkeypatch.setattr(rootfind, "_node_pair_sums", counted)
    tol, max_iter = rootfind.DEFAULT_TOL, rootfind.DEFAULT_MAX_ITER
    routes = (rootfind.NODE_ROUTE_PAIRS, math.inf)  # node route on, off
    for seed in range(8):
        p = sample_kac(CoefficientDistribution(kind), n, seed, 0)
        start = rootfind._initial_guesses(p)
        runs = []
        for pairs in routes:
            monkeypatch.setattr(rootfind, "NODE_ROUTE_PAIRS", pairs)
            roots, iters = rootfind._aberth_iterate(p, start, tol, max_iter)
            runs.append((roots, iters))
        (node, node_iters), (exact, iters) = runs
        assert node_iters == iters
        assert np.max(np.abs(node - exact) / np.abs(exact)) <= 1e-14
    assert len(taken) >= 8 and all(taken)


@pytest.mark.parametrize("n", [128, 256])
def test_small_solves_never_take_node_route(monkeypatch, n):
    # every sweep at n <= 256 divides fewer than NODE_ROUTE_PAIRS pairs
    def refuse(*args):
        raise AssertionError("node route taken")

    monkeypatch.setattr(rootfind, "_node_pair_sums", refuse)
    p = sample_kac(CoefficientDistribution(GAUSSIAN_COMPLEX), n, 1, 0)
    assert np.max(find_roots(p).residuals) <= rootfind.DEFAULT_TOL


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), 2e-3, 10.0,
                                 float("inf")])
def test_find_roots_rejects_tol_outside_cap(tol):
    with pytest.raises(ValueError, match="tol must be > 0 and <= 0.001"):
        find_roots(coeffs(-2.0, 0.0, 1.0), tol=tol)


def test_find_roots_accepts_tol_at_cap():
    rs = find_roots(coeffs(-2.0, 0.0, 1.0), tol=rootfind.ROOTS_TOL_MAX)
    assert np.max(rs.residuals) <= rootfind.ROOTS_TOL_MAX


def test_find_roots_of_huge_coefficients():
    # 1e308 coefficients overflow the residual scale and newton_ratio
    # unless the solve runs on the power-of-two scaled polynomial
    p = coeffs(1e308, 1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = find_roots(p)
    got = rs.roots[np.argsort(rs.roots.imag)]
    want = np.exp(2j * np.pi / 3 * np.array([-1, 1]))
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.all(rs.residuals <= 1e-12)


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_COMPLEX])
def test_find_roots_invariant_under_power_of_two_scaling(kind):
    # the solve runs on the coefficients scaled to max |c_k| in [1, 2),
    # so 2^k times them gives the same roots, residuals and sweeps
    p = sample_kac(CoefficientDistribution(kind), 128, 5, 0)
    base = find_roots(p)
    parts = p.coeffs.view(np.float64)
    for k in (-1000, 7, 1000):
        rs = find_roots(Coefficients(np.ldexp(parts, k).view(p.coeffs.dtype)))
        assert rs.roots.tobytes() == base.roots.tobytes()
        assert rs.residuals.tobytes() == base.residuals.tobytes()
        assert rs.iterations == base.iterations


def _unit_roots_poly(n):
    c = np.zeros(n + 1)
    c[0], c[-1] = -1.0, 1.0
    return Coefficients(c)


def test_aberth_moves_roots_where_derivative_underflows():
    # on z^1024 - 1 one start point reaches |z| ~ 0.31, where p' underflows
    # and the Newton ratio is infinite; a zero step there froze it at a
    # non-root (residual 1.0), while the limit step -1/s moves it on
    p = _unit_roots_poly(1024)
    roots, _ = rootfind._aberth_iterate(p, rootfind._initial_guesses(p),
                                        rootfind.DEFAULT_TOL,
                                        rootfind.DEFAULT_MAX_ITER)
    assert np.max(relative_residual(p, roots)) <= rootfind.DEFAULT_TOL


def test_find_roots_of_high_degree_unit_roots():
    # the ratio overflows (not only p' underflows) at degree 5000
    rs = find_roots(_unit_roots_poly(5000))
    assert rs.count == 5000
    assert np.max(rs.residuals) <= 1e-12


def test_aberth_iterate_keeps_guesses_and_respects_max_iter():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 60, 2, 0)
    guesses = rootfind._initial_guesses(p)
    before = guesses.copy()
    roots, iters = rootfind._aberth_iterate(p, guesses, 1e-12, 3)
    assert iters == 3
    assert np.array_equal(guesses, before)
    ref, _ = _ref_aberth_iterate(p, guesses, 1e-12, 3)
    assert roots.tobytes() == ref.tobytes()  # nothing freezes in 3 sweeps


def _close_pair_input(case):
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        z = rng.standard_normal(case) + 1j * rng.standard_normal(case)
        z[-1] = z[0] * (1.0 + 1e-7)  # one close pair, first and last index
        return z
    rng = np.random.default_rng(7)
    if case == "conjugate":
        # a conjugate pair and a real root share each real part
        up = rng.standard_normal(100) + 1j * np.abs(rng.standard_normal(100))
        return np.concatenate([up, np.conj(up), up.real + 0j])
    if case == "vertical":
        # every real-part gap is zero: the search compares all pairs
        return 0.5 + 1j * np.linspace(-2.0, 2.0, 200)
    if case == "duplicates":
        z = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        return np.concatenate([z, z[:20], z[:5]])
    if case == "at-bound":
        # 0 and each rel * (1 + |0|) away from it: exactly at the bound; at
        # rel = 0.1 the real-part gap of -1.5 and -1.25 is 0.25, exactly the
        # largest bound, 0.1 * (1 + 1.5), so the sweep reaches that pair
        rels = np.array([1e-9, 1e-5, 0.1])
        return np.concatenate([[0.0, -1.5, -1.25], rels, -rels, 1j * rels,
                               -1j * rels])
    if case == "dense":
        return 0.05 * (rng.standard_normal(150) + 1j * rng.standard_normal(150))
    if case == "nan":
        # NaN has no bound, so the reach comes from the other roots
        z = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        z[[3, 40, 41]] = [complex(np.nan, 0.0), complex(0.25, np.nan),
                          complex(np.nan, np.nan)]
        z[50] = z[49] * (1.0 + 1e-7)
        return z
    return {"empty": np.zeros(0, dtype=np.complex128),
            "single": np.array([1.0 + 1.0j])}[case]


@pytest.mark.parametrize("case", [2, 64, 65, 300, "conjugate", "vertical",
                                  "duplicates", "at-bound", "dense", "nan",
                                  "empty", "single"])
def test_close_root_pairs_match_full_matrix(case):
    z = _close_pair_input(case)
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, np.inf)
    for rel in (1e-9, 1e-5, 0.1):
        full = np.argwhere(diff <= rel * (1.0 + np.abs(z)[:, None]))
        assert np.array_equal(rootfind.close_root_pairs(z, rel), full)
