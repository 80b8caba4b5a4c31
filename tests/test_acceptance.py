"""Acceptance suite: one test per pinned criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
expected to pass.  Targets are the exact values of their defining formulas:
D_* from its closed form (01), the finite-t tail law of Phi (02b), the
finite-n Gaussian Mahler mean (06) and the Kac-Rice integral with the true
conditional variance (08).
"""

import math
import time

import numpy as np
import pytest

from kacdisc import limits
from kacdisc.discriminant import decompose, exact_discriminant, mahler
from kacdisc.experiments import (ExperimentConfig, run_clustering,
                                 run_kacrice_gaussian, run_lln, run_mahler,
                                 run_symmetry)
from kacdisc.limits import EULER_GAMMA
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                                 CoefficientDistribution, Coefficients,
                                 sample_kac)
from kacdisc.rootfind import find_roots

SEED = 42
WORKERS = 1

# D_* = gamma - 1/2 + log 2 - (1/2) int Phi = 2.70898004961645700714...,
# evaluated from the definitions with mpmath at 80 digits.  The lln
# statistic (log|disc| - 2n log n)/n, Rademacher, seed 42, 200 trials,
# has means -2.6404, -2.6762, -2.6863, -2.6973 at n = 200, 400, 800, 1600;
# fits a + b/n and a + b log(n)/n extrapolate to -2.7047 +/- 0.0021 and
# -2.7086 +/- 0.0024.
D_STAR_PINNED = 2.70898
D_STAR_PINNED_TOL = 5e-5


def verdict(num: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------- 1: D*

def test_criterion_01_constant_reproduction():
    t0 = time.monotonic()
    d_star, integral_phi = limits.d_star(), limits.integral_phi()
    elapsed = time.monotonic() - t0
    gap = abs(d_star - D_STAR_PINNED)
    ok = gap <= D_STAR_PINNED_TOL and elapsed < 5.0
    detail = (f"d_star computed {d_star:.7f} vs pinned {D_STAR_PINNED} "
              f"(gap {gap:.6f}, allowed {D_STAR_PINNED_TOL}); the defining "
              f"integral gives int_phi = {integral_phi:.7f}; "
              f"{elapsed:.2f}s")
    assert verdict("01", ok, detail), detail


# ------------------------------------------------------- 2: phi endpoints

def test_criterion_02a_phi_endpoint():
    got = limits.phi(1e-8)
    target = -math.log(3.0) / 3.0
    ok = abs(got - target) <= 1e-6
    assert verdict("02a", ok, f"phi(1e-8) = {got:.9f} vs -log3/3 = {target:.9f}")


def test_criterion_02b_phi_tail():
    # t^2 Phi(t) = -log(2 t^3) + O(t^2 log t e^{-2t}), so t^2 Phi / log t tends
    # to -3 only through the correction -log 2 / log t (5.9% at t = 50)
    def ratio(t):
        return t * t * limits.phi(t) / math.log(t)

    t = 50.0
    law = math.log(2.0 * t ** 3)
    resid = abs(t * t * limits.phi(t) + law)
    far = ratio(1000.0)
    gaps = [abs(ratio(t) + 3.0) for t in (50.0, 100.0, 1000.0, 1e4)]
    ok = (resid <= 1e-12 * law and abs(far + 3.0) <= 0.05 * 3.0
          and all(b < a for a, b in zip(gaps, gaps[1:])))
    detail = (f"|t^2 phi + log(2t^3)| at t=50 = {resid:.2e}; t^2 phi/log t "
              f"at t=1000 = {far:.6f}, {abs(far + 3.0) / 3.0 * 100:.2f}% "
              f"from -3 (allowed 5%); |ratio+3| at t=50,100,1e3,1e4 "
              f"{['%.4f' % g for g in gaps]}")
    assert verdict("02b", ok, detail), detail


# --------------------------------------------- 3: normalization identity

def test_criterion_03_normalization_identity():
    val = limits.normalization_identity_check()
    ok = abs(val - 1.0) <= 1e-8
    assert verdict("03", ok, f"integral = {val:.12f}")


# ------------------------------------------------- 4: oracle equivalence

def test_criterion_04_exact_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(2, 21))
        c = rng.integers(-9, 10, n + 1).astype(np.float64)
        if c[-1] == 0 or c[0] == 0:
            continue
        p = Coefficients(c)
        exact = exact_discriminant(p)
        if exact == 0:
            continue
        target = math.log(abs(exact))
        got = decompose(p, find_roots(p), 16 * (n + 1)).log_abs_disc_direct
        err = abs(got - target) / (1 + abs(target))
        worst = max(worst, err)
        assert err <= 1e-8, f"poly {c} err {err:.3e}"
        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 60
    assert verdict("04", ok,
                   f"100 squarefree integer polynomials, worst relative "
                   f"log-gap {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------- 5: Jensen cross-check

def test_criterion_05_mahler_two_routes():
    from kacdisc.errors import GridCollisionError
    dist = CoefficientDistribution(RADEMACHER)
    done = trial = 0
    worst = 0.0
    while done < 100:
        p = sample_kac(dist, 50, SEED, trial)
        trial += 1
        rs = find_roots(p)
        try:
            res = mahler(p, rs, 1 << 15)
        except GridCollisionError:
            continue
        if res.nearest_root_distance_to_circle < 1e-3:
            continue
        gap = abs(res.log_m_quadrature - res.log_m_roots)
        worst = max(worst, gap)
        assert gap <= 1e-6
        done += 1
    assert verdict("05", worst <= 1e-6,
                   f"100 degree-50 samples, worst route gap {worst:.2e}")


# --------------------------------------- 6: exact Gaussian Mahler mean

def test_criterion_06_gaussian_mahler_mean():
    t0 = time.monotonic()
    cfg = ExperimentConfig(dist=CoefficientDistribution(GAUSSIAN_COMPLEX),
                           n_ladder=(64,), trials=2000, master_seed=SEED,
                           workers=WORKERS)
    rep = run_mahler(cfg)
    stats = rep.per_n["64"]["stats"]
    # f(e^{i theta}) ~ CN(0, n+1) at every theta, so the exact mean of the
    # circle average of log|f/sqrt(n)| is -gamma/2 + log(1+1/n)/2
    finite_n_mean = -EULER_GAMMA / 2 + 0.5 * math.log1p(1 / 64)
    gap = abs(stats["mean"] - finite_n_mean)
    allowed = 4 * stats["stderr"]
    elapsed = time.monotonic() - t0
    ok = gap <= allowed and elapsed < 120
    detail = (f"mean {stats['mean']:.6f} vs exact finite-n mean "
              f"-gamma/2 + log(1+1/n)/2 = {finite_n_mean:.6f}: gap {gap:.6f}, "
              f"allowed 4se = {allowed:.6f}; limit -gamma/2 = "
              f"{-EULER_GAMMA / 2:.6f}; {elapsed:.0f}s")
    assert verdict("06", ok, detail), detail


# ------------------------------------------ 7: Mahler universality

def test_criterion_07_mahler_universality():
    cfg = ExperimentConfig(dist=CoefficientDistribution(RADEMACHER),
                           n_ladder=(512,), trials=400, master_seed=SEED,
                           workers=WORKERS)
    rep = run_mahler(cfg)
    stats = rep.per_n["512"]["stats"]
    gap = abs(stats["mean"] + EULER_GAMMA / 2)
    ok = gap <= 0.03
    # point estimate M(f_n) ~ sqrt(n) e^{-gamma/2}
    point = rep.per_n["512"]["mahler_point_estimate"]
    target = math.sqrt(512) * math.exp(-EULER_GAMMA / 2)
    ok = ok and abs(point - target) <= 0.1 * target
    assert verdict("07", ok,
                   f"mean gap {gap:.5f} (allowed 0.03); point estimate "
                   f"{point:.3f} vs {target:.3f}")


# ------------------------------------------------ 8: Kac-Rice exactness

def test_criterion_08_kacrice_exactness():
    t0 = time.monotonic()
    cfg = ExperimentConfig(dist=CoefficientDistribution(GAUSSIAN_COMPLEX),
                           n_ladder=(256,), trials=400, master_seed=SEED,
                           workers=WORKERS)
    rep = run_kacrice_gaussian(cfg)
    info = rep.per_n["256"]
    elapsed = time.monotonic() - t0
    ok = info["gap_conditional_in_se"] <= 4 and elapsed < 300
    detail = (f"MC mean {info['stats']['mean']:.5f} vs density quadrature "
              f"with the true conditional variance "
              f"{info['quadrature_conditional']:.5f}: gap "
              f"{info['gap_conditional_in_se']:.1f} se (allowed 4); "
              f"{elapsed:.0f}s")
    assert verdict("08", ok, detail), detail


# ------------------------------------------------------ 9: psi_n -> Psi

def test_criterion_09_psi_n_convergence():
    ts = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)

    def err(n):
        return max(abs(limits.s_n_suite(n, t).psi_n - limits.psi_limit(t))
                   for t in ts)
    e3, e4, e5 = err(10 ** 3), err(10 ** 4), err(10 ** 5)
    ok = e4 < 0.01 and e3 / e5 >= 5.0
    assert verdict("09", ok,
                   f"max gaps: n=1e3 {e3:.2e}, n=1e4 {e4:.2e}, n=1e5 {e5:.2e} "
                   f"(ratio 1e3/1e5 = {e3 / e5:.1f})")


# ----------------------------------------------------- 10: LLN trend

@pytest.fixture(scope="module")
def lln_runs():
    t0 = time.monotonic()
    cfg = ExperimentConfig(dist=CoefficientDistribution(RADEMACHER),
                           n_ladder=(200, 400, 800, 1600), trials=200,
                           master_seed=SEED, workers=WORKERS)
    rad = run_lln(cfg)
    cfg_g = ExperimentConfig(dist=CoefficientDistribution(GAUSSIAN_REAL),
                             n_ladder=(800,), trials=200, master_seed=SEED,
                             workers=WORKERS)
    gauss = run_lln(cfg_g)
    return rad, gauss, time.monotonic() - t0


def test_criterion_10_lln_trend(lln_runs):
    rad, gauss, elapsed = lln_runs
    ladder = (200, 400, 800, 1600)
    means = [rad.per_n[str(n)]["stats"]["mean"] for n in ladder]
    stds = [rad.per_n[str(n)]["stats"]["std"] for n in ladder]
    devs = [abs(m + D_STAR_PINNED) for m in means]
    devs_computed = [abs(m + limits.d_star()) for m in means]
    trend = all(b <= a for a, b in zip(devs, devs[1:]))
    trend_computed = all(b <= a for a, b in zip(devs_computed, devs_computed[1:]))
    stds_decreasing = all(b < a for a, b in zip(stds, stds[1:]))

    mr = rad.per_n["800"]["stats"]
    mg = gauss.per_n["800"]["stats"]
    joint_se = math.hypot(mr["stderr"], mg["stderr"])
    universal = abs(mr["mean"] - mg["mean"]) <= 3 * joint_se

    ok = trend and trend_computed and stds_decreasing and universal \
        and elapsed < 1800
    detail = (f"means {['%.4f' % m for m in means]}, stds "
              f"{['%.4f' % s for s in stds]}; |mean-(-{D_STAR_PINNED})| "
              f"{['%.4f' % d for d in devs]} decreasing={trend}; "
              f"universality gap {abs(mr['mean'] - mg['mean']):.5f} vs "
              f"3 joint se {3 * joint_se:.5f}; {elapsed:.0f}s")
    assert verdict("10", ok, detail), detail


# ----------------------------------------------- 11: symmetry in law

def test_criterion_11_symmetry_ks():
    cfg = ExperimentConfig(dist=CoefficientDistribution(RADEMACHER),
                           n_ladder=(300,), trials=500, master_seed=SEED,
                           workers=WORKERS)
    rep = run_symmetry(cfg)
    info = rep.per_n["300"]
    ok = not info["reject"]
    assert verdict("11", ok,
                   f"KS distance {info['ks_distance']:.4f}, p-value "
                   f"{info['ks_pvalue']:.4f}, level "
                   f"{rep.reference['bonferroni_level']:.4f}")


# ----------------------------------------- 12: theorem-bound suite

def test_criterion_12_bound_suite():
    cfg = ExperimentConfig(dist=CoefficientDistribution(RADEMACHER),
                           n_ladder=(300, 700), trials=40, master_seed=SEED,
                           workers=WORKERS)
    rep = run_clustering(cfg)
    violations = sum(rep.per_n[str(n)]["sector_violations"] for n in (300, 700))

    # decomposition identity against the direct log-discriminant route
    dist = CoefficientDistribution(RADEMACHER)
    done = trial = 0
    worst = 0.0
    while done < 60:
        p = sample_kac(dist, 40, SEED + 1, trial)
        trial += 1
        rs = find_roots(p)
        if np.min(np.abs(np.abs(rs.roots) - 1.0)) < 5e-4:
            continue
        br = decompose(p, rs, 1 << 16)
        direct = br.log_abs_disc_direct
        pieces = br.sum_inside + br.sum_outside + br.mahler_term + br.log_n_term
        assert pieces == br.total_log_abs_disc
        err = abs(br.total_log_abs_disc - direct) / (1 + abs(direct))
        worst = max(worst, err)
        done += 1
    ok = violations == 0 and worst <= 1e-8
    assert verdict("12", ok,
                   f"sector-bound violations {violations}/80; worst "
                   f"decomposition-vs-direct gap {worst:.2e} over 60 instances")
