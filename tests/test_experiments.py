import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacdisc.errors import EmptyInputError
from kacdisc.experiments import (ExperimentConfig, SummaryStats,
                                 _circle_value_and_slope,
                                 _refine_circle_minimum, ks_two_sample,
                                 run_kacrice_gaussian, run_lln, run_mahler,
                                 run_min_modulus, run_symmetry, summarize)
from kacdisc.limits import EULER_GAMMA
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, RADEMACHER,
                                 CoefficientDistribution, circle_values,
                                 sample_kac)

RAD = CoefficientDistribution(RADEMACHER)


def config(**kw):
    base = dict(dist=RAD, n_ladder=(24,), trials=6, master_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


# --------------------------------------------------------------- summarize

def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0 and s.std == 1.0 and s.count == 3
    assert s.stderr == pytest.approx(1.0 / math.sqrt(3))
    assert s.min == 1.0 and s.max == 3.0 and s.q50 == 2.0


def test_summarize_empty():
    with pytest.raises(EmptyInputError):
        summarize([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_summarize_invariants(vals):
    s = summarize(vals)
    assert s.min <= s.q05 <= s.q25 <= s.q50 <= s.q75 <= s.q95 <= s.max
    assert s.stderr == pytest.approx(s.std / math.sqrt(s.count))


def test_summary_csv_columns():
    s = summarize([1.0, 2.0])
    row = s.csv_row().split(",")
    assert len(row) == len(SummaryStats.CSV_COLUMNS) == 11
    assert float(row[1]) == s.mean


# ---------------------------------------------------------------------- KS

def test_ks_identical_samples():
    x = [0.1, 0.4, 0.9, 2.0]
    d, p = ks_two_sample(x, x)
    assert d == 0.0 and p == 1.0


def test_ks_brute_force_value():
    # ECDF steps by hand: max gap is 0.5 on [0, 0.5)
    d, _ = ks_two_sample([0.0, 1.0], [0.5, 1.5])
    assert d == pytest.approx(0.5)


def test_ks_survival_against_dual_series():
    # independent representation of the same distribution via the
    # theta-transformed series 1 - sqrt(2 pi)/lam * sum exp(-(2j-1)^2 pi^2/(8 lam^2))
    from kacdisc.experiments import _kolmogorov_sf
    for lam in (0.5, 0.8, 1.0, 1.5, 2.0):
        dual = 1.0 - math.sqrt(2 * math.pi) / lam * sum(
            math.exp(-(2 * j - 1) ** 2 * math.pi ** 2 / (8 * lam ** 2))
            for j in range(1, 40))
        assert abs(_kolmogorov_sf(lam) - dual) < 1e-12


def test_ks_detects_shift():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(400)
    b = rng.standard_normal(400) + 1.0
    d, p = ks_two_sample(a, b)
    assert p < 1e-6 and d > 0.3


# ------------------------------------------------------------------ config

def test_config_roundtrip():
    c = config(n_ladder=(8, 16, 32), trials=7, quad_factor=32)
    c2 = ExperimentConfig.from_json(c.to_json())
    assert c == c2


def test_config_validation():
    with pytest.raises(ValueError):
        config(trials=0)
    with pytest.raises(ValueError):
        config(n_ladder=(32, 16))
    with pytest.raises(ValueError):
        config(annulus_omega="loglog")
    with pytest.raises(ValueError):
        config(quad_factor=2)


@pytest.mark.parametrize("ladder", [(0,), (-2, 16), (0, 1)])
def test_config_rejects_degree_below_one(ladder):
    with pytest.raises(ValueError, match="n_ladder"):
        config(n_ladder=ladder)


def test_ineligible_distribution_rejected():
    raw = CoefficientDistribution("uniform_int_raw", k=240)
    with pytest.raises(ValueError):
        run_lln(config(dist=raw))


# ----------------------------------------------------------------- runners

def test_lln_wiring_on_fixed_polynomial():
    fixed = CoefficientDistribution("fixed", coeffs=(-1.0, 0.0, 1.0))
    rep = run_lln(config(dist=fixed, n_ladder=(2,), trials=4,
                         allow_ineligible=True))
    stats = rep.per_n["2"]["stats"]
    assert stats["mean"] == -math.log(2)
    assert stats["std"] == 0.0
    assert rep.guards["circle_root"] == 4


def test_lln_statistic_plumbing():
    rep = run_lln(config(n_ladder=(20,), trials=5))
    for rec in rep.records:
        if rec["status"] != "ok":
            continue
        total = rec["sum_inside"] + rec["sum_outside"] + rec["mahler_term"] \
            + rec["log_n_term"]
        assert total == rec["total_log_abs_disc"]
        n = rec["n"]
        assert rec["statistic"] == (rec["total_log_abs_disc"]
                                    - 2 * n * math.log(n)) / n


def test_report_determinism_and_worker_independence():
    c1 = config(n_ladder=(18, 24), trials=6, workers=1)
    c2 = config(n_ladder=(18, 24), trials=6, workers=2)
    r1a = run_lln(c1)
    r1b = run_lln(c1)
    r2 = run_lln(c2)
    assert r1a.to_json() == r1b.to_json()
    assert r1a.records == r2.records
    # config echo differs only in the worker count
    p1 = json.loads(r1a.to_json())
    p2 = json.loads(r2.to_json())
    p1["config"].pop("workers")
    p2["config"].pop("workers")
    assert p1 == p2


def test_mahler_runner_gaussian():
    gc = CoefficientDistribution(GAUSSIAN_COMPLEX)
    rep = run_mahler(config(dist=gc, n_ladder=(32,), trials=60))
    m = rep.per_n["32"]["stats"]["mean"]
    assert abs(m + EULER_GAMMA / 2) < 0.1
    assert rep.reference["minus_half_gamma"] == -EULER_GAMMA / 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_modulus_monomial():
    # |z^16| = 1 on the circle; the reversed half is q = 1 with q' = 0, so
    # the refinement meets zero slope there and must take no step
    fixed = CoefficientDistribution("fixed", coeffs=(0.0,) * 16 + (1.0,))
    rep = run_min_modulus(config(dist=fixed, n_ladder=(16,), trials=2))
    assert rep.per_n["16"]["stats"]["mean"] == pytest.approx(4.0, abs=1e-12)
    assert rep.per_n["16"]["stats_refined"]["mean"] == pytest.approx(4.0, abs=1e-12)


def _golden_section_minimum(coeffs, mags):
    """The former refinement: a 48-step golden-section search over the same
    candidate brackets, evaluating both interior points on every step."""
    def mags_at(thetas):
        z = np.exp(1j * thetas)
        acc = np.full_like(z, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc = acc * z + c
        return np.abs(acc)

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    m = mags.size
    local = np.where((mags < np.roll(mags, 1)) & (mags <= np.roll(mags, -1)))[0]
    if local.size == 0:
        return float(mags.min())
    cand = local[mags[local] <= 6.0 * mags.min()]
    if cand.size > 32:
        cand = cand[np.argsort(mags[cand])[:32]]
    h = 2.0 * math.pi / m
    a = 2.0 * math.pi * cand / m - h
    b = a + 2.0 * h
    best = float(mags.min())
    for _ in range(48):
        x1 = b - golden * (b - a)
        x2 = a + golden * (b - a)
        f1, f2 = mags_at(x1), mags_at(x2)
        take1 = f1 <= f2
        b = np.where(take1, x2, b)
        a = np.where(take1, a, x1)
        best = min(best, float(f1.min()), float(f2.min()))
    return best


@pytest.mark.parametrize("n,phi", [(64, 0.123456789), (64, 2.5), (128, 1.0)])
def test_refined_minimum_matches_analytic_dip(n, phi):
    # f = z^n - rho e^{i phi} has min |f| = 1 - rho on the circle, in n dips
    # of angular width ~ (1 - rho)/n, far below the grid spacing
    rho = 1.0 - 1e-6
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0], coeffs[-1] = -rho * np.exp(1j * phi), 1.0
    mags = np.abs(circle_values(coeffs, 1.0, 16 * (n + 1)))
    assert mags.min() > 1e-3
    assert abs(_refine_circle_minimum(coeffs, mags) - (1.0 - rho)) <= 1e-9


def test_circle_slope_matches_analytic_derivative_on_both_branches():
    # g = |e^{in theta} - a|^2 has g' = 2n Im(conj(a) e^{in theta}); rounding
    # puts some e^{i theta} outside the circle, where the kernel evaluates
    # the reversed polynomial, and both halves must give the same g and g'
    n, a = 40, 0.7 - 0.4j
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0], coeffs[-1] = -a, 1.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 997)
    outside = np.abs(np.exp(1j * thetas)) > 1.0
    assert 0 < np.count_nonzero(outside) < thetas.size
    F, J = _circle_value_and_slope(coeffs, thetas)
    w = np.exp(1j * n * thetas)
    assert np.allclose(np.abs(F), np.abs(w - a), rtol=0, atol=1e-12)
    assert np.allclose(2.0 * (F.conj() * J).real,
                       2.0 * n * (np.conj(a) * w).imag, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [RADEMACHER, "gaussian_real", GAUSSIAN_COMPLEX])
def test_refined_minimum_agrees_with_golden_section(kind):
    n, dist = 512, CoefficientDistribution(kind)
    for trial in range(40):
        p = sample_kac(dist, n, 11, trial)
        mags = np.abs(circle_values(p.coeffs, 1.0, 16 * (n + 1)))
        refined = _refine_circle_minimum(p.coeffs, mags)
        reference = _golden_section_minimum(p.coeffs, mags)
        assert refined <= mags.min()
        assert abs(refined - reference) <= 1e-8 * reference


def test_symmetry_runner_small():
    rep = run_symmetry(config(n_ladder=(40,), trials=50))
    info = rep.per_n["40"]
    assert 0.0 <= info["ks_distance"] <= 1.0
    assert not info["reject"]


def test_symmetry_gaussian_real():
    gr = CoefficientDistribution("gaussian_real")
    rep = run_symmetry(config(dist=gr, n_ladder=(40,), trials=50))
    assert not rep.per_n["40"]["reject"]


def test_clustering_fraction_trend():
    from kacdisc.experiments import run_clustering
    rep = run_clustering(config(n_ladder=(300, 700, 1500), trials=10))
    fracs = [rep.per_n[str(n)]["annulus_fraction"]["mean"]
             for n in (300, 700, 1500)]
    assert fracs[0] < fracs[1] < fracs[2]
    assert fracs[2] >= 0.9
    assert all(rep.per_n[str(n)]["sector_violations"] == 0
               for n in (300, 700, 1500))


def test_clustering_constructed_circle_roots():
    from kacdisc.experiments import run_clustering
    # x^n - 1 has every root on the unit circle
    fixed = CoefficientDistribution("fixed", coeffs=(-1.0,) + (0.0,) * 15 + (1.0,))
    rep = run_clustering(config(dist=fixed, n_ladder=(16,), trials=1))
    assert rep.per_n["16"]["annulus_fraction"]["mean"] == 1.0


def test_min_modulus_scaling_and_tail():
    rep = run_min_modulus(config(n_ladder=(512, 2048), trials=120))
    # the refined minimum has a stable law; the raw grid minimum does not
    med512 = rep.per_n["512"]["stats_refined"]["q50"]
    med2048 = rep.per_n["2048"]["stats_refined"]["q50"]
    assert 0.5 <= med512 / med2048 <= 2.0
    for n in ("512", "2048"):
        assert rep.per_n[n]["fraction_below_one_over_n"] < 0.05
        assert rep.per_n[n]["fraction_refined_below_one_over_n"] < 0.05
        grid = rep.per_n[n]["stats"]["q50"]
        refined = rep.per_n[n]["stats_refined"]["q50"]
        assert refined <= grid


def test_kacrice_requires_complex_gaussian():
    with pytest.raises(ValueError):
        run_kacrice_gaussian(config())


def test_kacrice_small_run():
    gc = CoefficientDistribution(GAUSSIAN_COMPLEX)
    rep = run_kacrice_gaussian(config(dist=gc, n_ladder=(150,), trials=40))
    info = rep.per_n["150"]
    # both references use the true conditional variance and track the
    # Monte Carlo
    assert info["gap_conditional_in_se"] < 6
    assert info["gap_in_se"] < 6
