import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacdisc import experiments, limits
from kacdisc.cli import dispatch
from kacdisc.errors import (ConfigurationError, EmptyInputError,
                            ExperimentIntegrityError, NonConvergenceError)
from kacdisc.experiments import (ExperimentConfig, _refine_circle_minimum,
                                 ks_two_sample, run_clustering,
                                 run_kacrice_gaussian, run_lln, run_mahler,
                                 run_min_modulus, run_symmetry, summarize)
from kacdisc.limits import EULER_GAMMA
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, RADEMACHER,
                                 CoefficientDistribution, Coefficients,
                                 circle_value_and_slope, circle_values,
                                 sample_kac)

RAD = CoefficientDistribution(RADEMACHER)


def config(**kw):
    base = dict(dist=RAD, n_ladder=(24,), trials=6, master_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def pin_sample(monkeypatch, *coeffs):
    """Make every trial draw the given coefficients; the runs that use this
    keep one worker, so the trials run in this process and see the patch."""
    p = Coefficients(np.array(coeffs))
    monkeypatch.setattr(experiments, "sample_kac", lambda *args: p)


# --------------------------------------------------------------- summarize

def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0 and s.std == 1.0 and s.count == 3
    assert s.stderr == pytest.approx(1.0 / math.sqrt(3))
    assert s.min == 1.0 and s.max == 3.0 and s.q50 == 2.0


def test_summarize_empty():
    with pytest.raises(EmptyInputError):
        summarize([])
    with pytest.raises(EmptyInputError):
        ks_two_sample([], [1.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_summarize_invariants(vals):
    s = summarize(vals)
    assert s.min <= s.q05 <= s.q25 <= s.q50 <= s.q75 <= s.q95 <= s.max
    assert s.stderr == pytest.approx(s.std / math.sqrt(s.count))


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

# tiny runs of every experiment (kacrice needs n >= 97)
ROUNDTRIP_RUNS = {
    "lln": ["--n", "16,24", "--trials", "3"],
    "symmetry": ["--n", "16", "--trials", "3"],
    "mahler": ["--n", "16", "--trials", "3"],
    "clustering": ["--n", "16", "--trials", "3"],
    "minmod": ["--n", "16", "--trials", "3"],
    "kacrice": ["--n", "97", "--trials", "2"],
}


def test_config_roundtrip(tmp_path):
    # the config a manifest echoes, given back as --config, reruns the
    # experiment to the same bytes
    for name, argv in ROUNDTRIP_RUNS.items():
        first, again = tmp_path / name / "first", tmp_path / name / "again"
        assert dispatch([name, *argv, "--seed", "3", "--out", str(first)]) == 0
        cfg = tmp_path / name / "config.json"
        manifest = json.loads((first / "manifest.json").read_text())
        cfg.write_text(json.dumps(manifest["config"]))
        assert dispatch([name, "--config", str(cfg), "--out", str(again)]) == 0
        for fname in ("manifest.json", "report.json", "records.csv"):
            assert (again / fname).read_bytes() == (first / fname).read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        config(trials=0)
    with pytest.raises(ValueError):
        config(n_ladder=(32, 16))
    with pytest.raises(ValueError):
        config(annulus_omega="loglog")
    with pytest.raises(ValueError):
        config(quad_factor=2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        config(master_seed=-1)
    with pytest.raises(ValueError, match="n_ladder must be nonempty"):
        config(n_ladder=())
    with pytest.raises(ValueError, match="workers must be >= 1"):
        config(workers=0)


@pytest.mark.parametrize("ladder", [(0,), (-2, 16), (0, 1)])
def test_config_rejects_degree_below_one(ladder):
    with pytest.raises(ValueError, match="n_ladder"):
        config(n_ladder=ladder)


@pytest.mark.parametrize("field,value", [
    ("n_ladder", "16"), ("n_ladder", [8.7]), ("n_ladder", 16),
    ("trials", 2.5), ("trials", "x"), ("trials", True),
    ("quad_factor", 16.5), ("workers", True),
    ("allow_ineligible", "false"), ("keep_records", "no"),
    ("dist", RADEMACHER),
], ids=["string-ladder", "float-ladder", "int-ladder", "float-trials",
        "string-trials", "bool-trials", "float-quad-factor", "bool-workers",
        "string-allow-ineligible", "string-keep-records", "string-dist"])
def test_config_rejects_ill_typed_field(field, value):
    # a truthy string must not pass for allow_ineligible=True, nor "16" for
    # the ladder (1, 6)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        config(**{field: value})


def test_ineligible_distribution_rejected():
    raw = CoefficientDistribution("uniform_int_raw", k=240)
    with pytest.raises(ValueError):
        run_lln(config(dist=raw))


# ----------------------------------------------------------------- runners

def test_lln_wiring_on_fixed_polynomial(monkeypatch):
    pin_sample(monkeypatch, -1.0, 0.0, 1.0)
    rep = run_lln(config(n_ladder=(2,), trials=4))
    stats = rep.per_n["2"]["stats"]
    assert stats["mean"] == -math.log(2)
    assert stats["std"] == 0.0
    assert rep.guards["circle_root"] == 4


def test_lln_compares_with_the_pinned_d_star(monkeypatch):
    pin_sample(monkeypatch, -1.0, 0.0, 1.0)
    rep = run_lln(config(n_ladder=(2,), trials=2))
    assert rep.reference["minus_d_star"] == -limits.D_STAR
    assert rep.per_n["2"]["abs_dev_from_minus_d_star"] == \
        abs(-math.log(2) + limits.D_STAR)


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


@pytest.mark.parametrize("run,kw", [
    (run_lln, dict(n_ladder=(18, 24))),
    (run_symmetry, dict(n_ladder=(18, 24))),
    (run_mahler, dict(n_ladder=(16, 24))),
    (run_clustering, dict(n_ladder=(40, 80), trials=4)),
    (run_min_modulus, dict(n_ladder=(16, 32))),
    (run_kacrice_gaussian, dict(dist=CoefficientDistribution(GAUSSIAN_COMPLEX),
                                n_ladder=(97, 128), trials=4)),
], ids=["lln", "symmetry", "mahler", "clustering", "minmod", "kacrice"])
def test_report_determinism_and_worker_independence(run, kw):
    c1 = config(workers=1, **kw)
    c2 = config(workers=2, **kw)
    r1a = run(c1)
    r1b = run(c1)
    r2 = run(c2)
    assert r1a.to_json() == r1b.to_json()
    assert r1a.records == r2.records
    assert [(r["n"], r["trial"]) for r in r1a.records] == \
        [(n, t) for n in c1.n_ladder for t in range(c1.trials)]
    assert all(set(r) == set(r1a.record_columns) for r in r1a.records)
    # config echo differs only in the worker count
    p1 = json.loads(r1a.to_json())
    p2 = json.loads(r2.to_json())
    p1["config"].pop("workers")
    p2["config"].pop("workers")
    assert p1 == p2


def test_pool_no_larger_than_task_list(monkeypatch):
    # a pool forks all its workers at the first submit, so 64 workers for
    # 2 trials would fork 62 idle processes; the recorder runs the map in
    # this process and starts none
    opened = []

    class Recorder:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
    wide = run_lln(config(n_ladder=(16,), trials=2, workers=64))
    assert opened == [2]
    assert wide.records == run_lln(config(n_ladder=(16,), trials=2)).records
    # one task runs in this process
    run_lln(config(n_ladder=(16,), trials=1, workers=64))
    assert opened == [2]


@pytest.mark.parametrize("run,kw", [
    (run_lln, {}), (run_clustering, {}),
    (run_kacrice_gaussian, dict(dist=CoefficientDistribution(GAUSSIAN_COMPLEX),
                                n_ladder=(97,)))],
    ids=["lln", "clustering", "kacrice"])
def test_nonconvergence_budget(monkeypatch, run, kw):
    # trials below ``failing`` fail to converge; 1 in 100 is within the 1%
    # budget and counted, 2 in 100 stop the run
    failing = [1]
    real_sample = experiments.sample_kac

    def flaky(dist, n, seed, trial):
        if trial < failing[0]:
            raise NonConvergenceError("injected", 1.0)
        return real_sample(dist, n, seed, trial)

    monkeypatch.setattr(experiments, "sample_kac", flaky)
    rep = run(config(trials=100, **kw))
    assert rep.guards["nonconverged"] == 1
    assert rep.records[0]["status"] == "nonconverged"
    # the failed trial's record carries every column, as NaN
    assert set(rep.records[0]) == set(rep.record_columns)
    assert math.isnan(rep.records[0][rep.record_columns[-1]])
    assert rep.records_text("csv").count("\n") == 101
    failing[0] = 2
    with pytest.raises(ExperimentIntegrityError,
                       match=r"^2/100 trials failed to converge at n=\d+$"):
        run(config(trials=100, **kw))


def test_lln_double_root_trials():
    # Rademacher n=3 draws +-(1-z)^2(1+z), whose repeated root decompose
    # refuses; seed 1 draws it in 10 of 40 trials
    rep, rep2 = (run_lln(config(n_ladder=(3,), trials=40, master_seed=1,
                                workers=w)) for w in (1, 2))
    doubles = [r for r in rep.records if r["status"] == "double_root"]
    assert rep.guards["double_root"] == len(doubles) > 0
    split = ("sum_inside", "sum_outside", "mahler_term", "total_log_abs_disc")
    assert all(math.isnan(r[col]) for r in doubles for col in split)
    # NaN != NaN, so the records are compared as text
    assert rep2.records_text("jsonl") == rep.records_text("jsonl")
    # the json format is the jsonl lines as one list
    lines = rep.records_text("jsonl").splitlines()
    assert rep.records_text("json") == "[" + ", ".join(lines) + "]\n"
    with pytest.raises(ValueError, match="unknown record format 'xml'"):
        rep.records_text("xml")


def test_lln_degree_without_usable_trial_stops():
    # seed 0's trial 0 at Rademacher n=3 has a repeated root, so n=3 has no
    # statistic to summarize
    with pytest.raises(ExperimentIntegrityError,
                       match=r"^no usable trial at n=3 \(double_root=1\)$"):
        run_lln(config(n_ladder=(3, 8), trials=1, master_seed=0))


def test_mahler_counts_grid_roots():
    # Rademacher at odd n can vanish at z = +-1, both grid points, so such a
    # draw is a grid_root record with no statistic; seed 1 draws 19 in 40
    rep, rep2 = (run_mahler(config(n_ladder=(15,), trials=40, master_seed=1,
                                   workers=w)) for w in (1, 2))
    roots = [r for r in rep.records if r["status"] == "grid_root"]
    assert len(roots) == rep.guards["grid_root"] == 19
    assert all(math.isnan(r["statistic"]) for r in roots)
    assert rep.per_n["15"]["stats"]["count"] == 21
    # NaN != NaN, so the records are compared as text
    assert rep2.records_text("jsonl") == rep.records_text("jsonl")


def test_mahler_runner_gaussian():
    gc = CoefficientDistribution(GAUSSIAN_COMPLEX)
    rep = run_mahler(config(dist=gc, n_ladder=(32,), trials=60))
    m = rep.per_n["32"]["stats"]["mean"]
    assert abs(m + EULER_GAMMA / 2) < 0.1
    assert rep.reference["minus_half_gamma"] == -EULER_GAMMA / 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_modulus_monomial(monkeypatch):
    # |z^16| = 1 on the circle; the reversed half is q = 1 with q' = 0, so
    # the refinement meets zero slope there and must take no step
    pin_sample(monkeypatch, *(0.0,) * 16, 1.0)
    rep = run_min_modulus(config(n_ladder=(16,), trials=2))
    assert rep.per_n["16"]["stats"]["mean"] == pytest.approx(4.0, abs=1e-12)
    assert rep.per_n["16"]["stats_refined"]["mean"] == pytest.approx(4.0, abs=1e-12)
    # a grid of equal magnitudes has no local minimum to refine
    flat = np.ones(16 * 17)
    assert _refine_circle_minimum(np.array([0.0] * 16 + [1.0]), flat) == 1.0


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
    mags = np.abs(circle_values(coeffs, 16 * (n + 1)))
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
    F, J = circle_value_and_slope(coeffs, thetas)
    w = np.exp(1j * n * thetas)
    assert np.allclose(np.abs(F), np.abs(w - a), rtol=0, atol=1e-12)
    assert np.allclose(2.0 * (F.conj() * J).real,
                       2.0 * n * (np.conj(a) * w).imag, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [RADEMACHER, "gaussian_real", GAUSSIAN_COMPLEX])
def test_refined_minimum_agrees_with_golden_section(kind):
    n, dist = 512, CoefficientDistribution(kind)
    for trial in range(40):
        p = sample_kac(dist, n, 11, trial)
        mags = np.abs(circle_values(p.coeffs, 16 * (n + 1)))
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
    rep = run_clustering(config(n_ladder=(300, 700, 1500), trials=10))
    fracs = [rep.per_n[str(n)]["annulus_fraction"]["mean"]
             for n in (300, 700, 1500)]
    assert fracs[0] < fracs[1] < fracs[2]
    assert fracs[2] >= 0.9
    assert all(rep.per_n[str(n)]["sector_violations"] == 0
               for n in (300, 700, 1500))


def test_clustering_constructed_circle_roots(monkeypatch):
    # x^n - 1 has every root on the unit circle
    pin_sample(monkeypatch, -1.0, *(0.0,) * 15, 1.0)
    rep = run_clustering(config(n_ladder=(16,), trials=1))
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


@pytest.mark.parametrize("kw", [dict(n_ladder=(2,)), dict(n_ladder=(50, 150)),
                                dict(n_ladder=(150,), trials=1)])
def test_kacrice_rejects_configs_without_a_gap(kw):
    # n < 97 has no Kac-Rice reference (T_n undefined or beyond log^4 n);
    # one trial has no standard error
    gc = CoefficientDistribution(GAUSSIAN_COMPLEX)
    with pytest.raises(ConfigurationError):
        run_kacrice_gaussian(config(dist=gc, **kw))


def test_kacrice_small_run():
    gc = CoefficientDistribution(GAUSSIAN_COMPLEX)
    rep = run_kacrice_gaussian(config(dist=gc, n_ladder=(150,), trials=40))
    info = rep.per_n["150"]
    # both references use the true conditional variance and track the
    # Monte Carlo
    assert info["gap_conditional_in_se"] < 6
    assert info["gap_in_se"] < 6
