"""Seeded Monte Carlo experiments over random Kac polynomials.

Every experiment is a pure function of its configuration: per-trial RNG
streams are derived from (master_seed, trial index) with a counter-based
scheme, trials may run on any worker, and results are reduced in trial-index
order, so reports are identical for any worker count.  All six runners share
one per-n loop, which draws each trial's polynomial and writes its record's
``n``, ``trial`` and ``status``; each runner brings a trial function of
(config, polynomial), its record columns, its guard keys and a per-n reducer.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import get_type_hints

import numpy as np

from . import limits
from .discriminant import (MIN_QUAD_FACTOR, DiscriminantBreakdown, decompose,
                           quad_grid_points)
from .errors import (ConfigurationError, DoubleRootError, EmptyInputError,
                     ExperimentIntegrityError, NonConvergenceError)
from .polynomials import (GAUSSIAN_COMPLEX, RADEMACHER,
                          CoefficientDistribution, circle_value_and_slope,
                          circle_values, log_abs_deriv, sample_kac)
from .rootfind import (canonical_annulus, erdos_turan_bound, find_roots,
                       omega_annulus, root_stats)

MIN_MODULUS_GUARD = 1e-12
NONCONVERGENCE_BUDGET = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments; a field of another type than its
    annotation is a ValueError, except a list ladder, which becomes a tuple.

    ``asdict(config)`` is the ``config`` a run's manifest echoes; given back
    as a ``--config`` file it reruns the same experiment (see ``cli``).
    """

    dist: CoefficientDistribution
    n_ladder: tuple
    trials: int = 100
    master_seed: int = 0
    workers: int = 1
    allow_ineligible: bool = False

    def __post_init__(self):
        ladder = self.n_ladder
        if type(ladder) not in (list, tuple) or any(type(n) is not int for n in ladder):
            raise ValueError(f"n_ladder must be a list or tuple of int, got {ladder!r}")
        object.__setattr__(self, "n_ladder", tuple(ladder))
        for name, kind in get_type_hints(ExperimentConfig).items():
            value = getattr(self, name)
            if type(value) is not kind:
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(b <= a for a, b in zip(self.n_ladder, self.n_ladder[1:])):
            raise ValueError("n_ladder must be strictly increasing")
        if not self.n_ladder:
            raise ValueError("n_ladder must be nonempty")
        if any(n < 1 for n in self.n_ladder):
            raise ValueError("n_ladder entries must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SummaryStats:
    """Standard summary of a real sample; stderr = std / sqrt(count)."""

    count: int
    mean: float
    std: float
    stderr: float
    min: float
    max: float
    q05: float
    q25: float
    q50: float
    q75: float
    q95: float


def summarize(values) -> SummaryStats:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("cannot summarize an empty sample")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    q = np.quantile(arr, [0.05, 0.25, 0.5, 0.75, 0.95])
    return SummaryStats(count=int(arr.size), mean=float(arr.mean()), std=std,
                        stderr=std / math.sqrt(arr.size),
                        min=float(arr.min()), max=float(arr.max()),
                        q05=float(q[0]), q25=float(q[1]), q50=float(q[2]),
                        q75=float(q[3]), q95=float(q[4]))


def _kolmogorov_sf(lam: float) -> float:
    """Two-sided Kolmogorov asymptotic survival function."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 200):
        term = (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-17:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov distance and asymptotic p-value.

    p = K(sqrt(mn/(m+n)) * D) with K the Kolmogorov survival function.
    """
    a = np.sort(np.asarray(list(a), dtype=np.float64))
    b = np.sort(np.asarray(list(b), dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise EmptyInputError("KS test needs nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    lam = math.sqrt(a.size * b.size / (a.size + b.size)) * d
    return d, _kolmogorov_sf(lam)


@dataclass
class ExperimentReport:
    """Config echo, per-n summaries, reference values and guard counters."""

    experiment: str
    config: dict
    per_n: dict
    reference: dict
    guards: dict
    record_columns: tuple
    records: list

    def to_json(self) -> str:
        payload = {"schema": 1, "experiment": self.experiment,
                   "config": self.config, "per_n": self.per_n,
                   "reference": self.reference, "guards": self.guards}
        return json.dumps(payload, sort_keys=True)

    def records_csv(self) -> str:
        """The records as CSV: a header row, then one row per record with
        floats by repr."""
        lines = [",".join(self.record_columns)] + [
            ",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c])
                     for c in self.record_columns) for r in self.records]
        return "\n".join(lines) + "\n"


def _run_trials(fn, args_list, workers: int) -> list:
    # the pool forks all its workers at the first submit, so more than one
    # per task or per usable CPU would only sit idle
    workers = min(workers, len(args_list), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(a) for a in args_list]
    chunk = max(1, len(args_list) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, args_list, chunksize=chunk))


_NAN = float("nan")


def _guarded(trial, args) -> dict:
    """Draw trial t's polynomial of degree n and measure it; a failed root
    solve becomes a nonconverged record."""
    config, n, t = args
    try:
        p = sample_kac(config.dist, n, config.master_seed, t)
        return {"n": n, "trial": t, "status": "ok", **trial(config, p)}
    except NonConvergenceError:
        return {"n": n, "trial": t, "status": "nonconverged"}


def _run_experiment(config: ExperimentConfig, name: str, trial,
                    columns: tuple, guard_keys: tuple, reduce,
                    reference: dict) -> ExperimentReport:
    """The per-n loop shared by every runner.

    ``trial(config, p)`` maps the polynomial drawn for every n and trial
    index t (one task list, one worker pool per run) to its measurements,
    and names ``status`` only when the record is not ok; a record's missing
    columns read NaN.  Per n in ladder order, each non-ok status is counted
    under its own guard key.  At the first n where more than
    NONCONVERGENCE_BUDGET of the trials failed to converge the run stops,
    though the later n have run by then; otherwise ``reduce(n, records)`` is
    the summary of n, and an n that leaves it no sample stops the run.
    """
    if config.dist.atom_at_zero:
        # sample_kac rejects a zero leading draw, which would stop a run part-way
        raise ConfigurationError(
            f"distribution {config.dist.kind!r} with K={config.dist.k} has an "
            "atom at zero, so a sampled leading coefficient can be zero")
    columns = ("n", "trial", "status") + columns
    guards = dict.fromkeys(guard_keys, 0)
    per_n = {}
    all_recs = _run_trials(partial(_guarded, trial),
                           [(config, n, t) for n in config.n_ladder
                            for t in range(config.trials)],
                           config.workers)
    for i, n in enumerate(config.n_ladder):
        recs = all_recs[i * config.trials:(i + 1) * config.trials]
        for r in recs:
            for c in columns:
                r.setdefault(c, _NAN)
        left_out = Counter(r["status"] for r in recs if r["status"] != "ok")
        nonconv = left_out["nonconverged"]
        if nonconv > NONCONVERGENCE_BUDGET * config.trials:
            raise ExperimentIntegrityError(
                f"{nonconv}/{config.trials} trials failed to converge at n={n}")
        try:
            per_n[str(n)] = reduce(n, recs)
        except EmptyInputError:
            counts = ", ".join(f"{k}={v}" for k, v in left_out.items())
            raise ExperimentIntegrityError(
                f"no usable trial at n={n} ({counts})") from None
        for k, v in left_out.items():
            guards[k] += v
    return ExperimentReport(
        experiment=name, config=asdict(config), per_n=per_n,
        reference=reference, guards=guards, record_columns=columns,
        records=all_recs)


# every DiscriminantBreakdown field but n, which the record already holds
_BREAKDOWN_COLUMNS = tuple(f.name for f in fields(DiscriminantBreakdown)
                           if f.name != "n")


def _breakdown_trial(config: ExperimentConfig, p) -> dict:
    """The breakdown of the trial's polynomial; a root on the unit circle
    leaves its split pieces NaN and the total the direct one."""
    try:
        br = decompose(p, find_roots(p), MIN_QUAD_FACTOR * (p.degree + 1))
    except DoubleRootError:
        return {"status": "double_root"}
    rec = {c: getattr(br, c) for c in _BREAKDOWN_COLUMNS}
    if math.isnan(br.sum_inside):
        # statistic still valid; only the inside/outside split is undefined
        rec["status"] = "circle_root"
    return rec


_BREAKDOWN_GUARDS = ("double_root", "circle_root", "nonconverged")


def _require_breakdown_domain(config: ExperimentConfig):
    """The discriminant-statistic runners need a theorem-eligible law (unless
    allowed) and degree >= 2."""
    if not config.dist.theorem_eligible and not config.allow_ineligible:
        raise ConfigurationError(
            f"distribution {config.dist.kind!r} is not theorem-eligible "
            "(needs mean zero, unit variance, no atom at zero)")
    if config.n_ladder[0] < 2:
        raise ConfigurationError(
            "the discriminant decomposition needs degree >= 2, "
            f"got n={config.n_ladder[0]}")


def run_lln(config: ExperimentConfig) -> ExperimentReport:
    """Theorem statistic (log|disc| - 2 n log n)/n per trial, summarized
    against the reference -D_* (limits.D_STAR); repeated-root trials are
    excluded."""
    _require_breakdown_domain(config)
    dstar = limits.D_STAR

    def reduce(n, recs):
        # on-circle roots leave the statistic valid, only the split undefined
        stats = summarize([r["statistic"] for r in recs
                           if r["status"] in ("ok", "circle_root")])
        return {"stats": asdict(stats),
                "abs_dev_from_minus_d_star": abs(stats.mean + dstar)}

    return _run_experiment(config, "lln", _breakdown_trial, _BREAKDOWN_COLUMNS,
                           _BREAKDOWN_GUARDS, reduce, {"minus_d_star": -dstar})


def run_symmetry(config: ExperimentConfig) -> ExperimentReport:
    """Inside-root vs outside-root normalized log-derivative sums compared
    in distribution across trials with a two-sample KS test."""
    _require_breakdown_domain(config)
    level = 0.01 / len(config.n_ladder)  # Bonferroni across the ladder

    def reduce(n, recs):
        ok = [r for r in recs if r["status"] == "ok"]
        inside = [r["sum_inside"] for r in ok]
        outside = [r["sum_outside"] for r in ok]
        d, p = ks_two_sample(inside, outside)
        return {"inside": asdict(summarize(inside)),
                "outside": asdict(summarize(outside)),
                "ks_distance": d, "ks_pvalue": p, "reject": bool(p < level)}

    return _run_experiment(config, "symmetry", _breakdown_trial,
                           _BREAKDOWN_COLUMNS, _BREAKDOWN_GUARDS, reduce,
                           {"ks_level": 0.01, "bonferroni_level": level})


def _mahler_trial(config: ExperimentConfig, p) -> dict:
    """Circle average of log|f/sqrt(n)| on the Mahler quadrature grid of
    :func:`quad_grid_points`; a polynomial with a root on that grid has
    none."""
    n = p.degree
    vals = np.abs(circle_values(
        p.coeffs, quad_grid_points(MIN_QUAD_FACTOR * (n + 1))))
    if vals.min() < MIN_MODULUS_GUARD:
        return {"status": "grid_root"}
    return {"statistic": float(np.mean(np.log(vals))) - 0.5 * math.log(n)}


def run_mahler(config: ExperimentConfig) -> ExperimentReport:
    """Per-trial circle average of log|f/sqrt(n)| against -gamma/2."""
    if config.dist.kind == RADEMACHER and config.n_ladder[0] == 1:
        raise ConfigurationError(
            "Rademacher mahler needs degree >= 2, got n=1: every degree-1 "
            "root is +-1, on the unit circle")

    def reduce(n, recs):
        stats = summarize([r["statistic"] for r in recs if r["status"] == "ok"])
        return {"stats": asdict(stats),
                "abs_dev_from_minus_half_gamma":
                    abs(stats.mean + limits.EULER_GAMMA / 2.0),
                "mahler_point_estimate": math.exp(stats.mean) * math.sqrt(n)}

    return _run_experiment(config, "mahler", _mahler_trial, ("statistic",),
                           ("grid_root",), reduce,
                           {"minus_half_gamma": -limits.EULER_GAMMA / 2.0})


def _clustering_trial(config: ExperimentConfig, p) -> dict:
    n = p.degree
    stats = root_stats(find_roots(p), n, omega_annulus(n))
    grid_max = float(np.max(np.abs(
        circle_values(p.coeffs, MIN_QUAD_FACTOR * (n + 1)))))
    bound = erdos_turan_bound(p, 2.0 * grid_max)  # factor 2 covers grid slack
    return {"annulus_fraction": stats.annulus_count / n,
            "sector_count": stats.sector_count, "sector_bound": bound,
            "sector_ok": bool(stats.sector_count <= bound),
            "discrepancy": stats.discrepancy,
            "inside_count": stats.inside_count,
            "outside_count": stats.outside_count}


_CLUSTERING_COLUMNS = ("annulus_fraction", "sector_count", "sector_bound",
                       "sector_ok", "discrepancy", "inside_count",
                       "outside_count")


def run_clustering(config: ExperimentConfig) -> ExperimentReport:
    """Fraction of roots in the log^2(n)/n annulus, almost-real sector
    counts against the angular bound, and dyadic arc discrepancy."""

    def reduce(n, recs):
        ok = [r for r in recs if r["status"] == "ok"]
        return {
            "annulus_fraction":
                asdict(summarize([r["annulus_fraction"] for r in ok])),
            "sector_violations": sum(1 for r in ok if not r["sector_ok"]),
            "discrepancy": asdict(summarize([r["discrepancy"] for r in ok]))}

    return _run_experiment(config, "clustering", _clustering_trial,
                           _CLUSTERING_COLUMNS, ("nonconverged",), reduce,
                           {"omega": "log2"})


# Worst relative gap to a 10-step refinement over 40 trials per distribution
# at n=1024: 1.5e-4 after 2 steps, 8.8e-7 after 3, 1.3e-8 after 4 and
# 2.1e-10 after 5.
_GAUSS_NEWTON_STEPS = 5


def _refine_circle_minimum(coeffs: np.ndarray, mags: np.ndarray) -> float:
    """Sharpen the grid minimum of |f| on the unit circle.

    The dips of |f| near a root at distance d from the circle have angular
    width of order d, far below any practical grid spacing, so every local
    grid minimum within a small factor of the global one is refined by
    Gauss-Newton steps on g(theta) = |F(theta)|^2, vectorized across
    candidates: delta = -Re(conj(J) F) / |J|^2 with J = dF/dtheta, clipped
    to the candidate's bracket of one grid step either side.  At most 32
    candidates are kept, the smallest first and, among equal moduli (the
    mirrored dips of a real polynomial), the lower index.  A point with
    J = 0 takes no step.  The result is the least |F| evaluated, so it
    never exceeds the grid minimum.
    """
    m = mags.size
    local = np.where((mags < np.roll(mags, 1)) & (mags <= np.roll(mags, -1)))[0]
    if local.size == 0:
        return float(mags.min())
    cand = local[mags[local] <= 6.0 * mags.min()]
    if cand.size > 32:
        cand = cand[np.argsort(mags[cand], kind="stable")[:32]]
    h = 2.0 * math.pi / m
    centre = 2.0 * math.pi * cand / m
    theta = centre
    best = float(mags.min())
    for step in range(_GAUSS_NEWTON_STEPS + 1):
        F, J = circle_value_and_slope(coeffs, theta)
        best = min(best, float(np.abs(F).min()))
        if step == _GAUSS_NEWTON_STEPS:
            break
        slope2 = J.real ** 2 + J.imag ** 2
        delta = np.zeros_like(slope2)
        np.divide(-(J.conj() * F).real, slope2, out=delta, where=slope2 > 0)
        theta = np.clip(theta + delta, centre - h, centre + h)
    return best


def _minmod_trial(config: ExperimentConfig, p) -> dict:
    n = p.degree
    mags = np.abs(circle_values(p.coeffs, MIN_QUAD_FACTOR * (n + 1)))
    refined = _refine_circle_minimum(p.coeffs, mags)
    return {"statistic": math.sqrt(n) * float(mags.min()),
            "statistic_refined": math.sqrt(n) * refined}


def run_min_modulus(config: ExperimentConfig) -> ExperimentReport:
    """Distribution of sqrt(n) * (minimum of |f| on the unit circle).

    ``statistic`` uses the raw grid minimum; ``statistic_refined`` sharpens
    each candidate dip by Gauss-Newton steps.  Its law does not yet
    stabilize: for complex-Gaussian coefficients its mean was 1.02 / 1.42 /
    2.82 at n = 256 / 1024 / 4096, as the candidate cap misses the deepest
    dip more often at large n (ROADMAP item 18).
    """

    def reduce(n, recs):
        vals = [r["statistic"] for r in recs]
        refined = [r["statistic_refined"] for r in recs]
        return {
            "stats": asdict(summarize(vals)),
            "stats_refined": asdict(summarize(refined)),
            "fraction_below_one_over_n":
                sum(1 for v in vals if v < n ** -0.5) / len(vals),
            "fraction_refined_below_one_over_n":
                sum(1 for v in refined if v < n ** -0.5) / len(refined)}

    return _run_experiment(config, "min_modulus", _minmod_trial,
                           ("statistic", "statistic_refined"), (), reduce, {})


def _kacrice_trial(config: ExperimentConfig, p) -> dict:
    n = p.degree
    rs = find_roots(p)
    lo, hi = canonical_annulus(n)
    mod = np.abs(rs.roots)
    sel = (mod >= lo) & (mod <= hi)
    logfp = log_abs_deriv(p, rs.roots[sel])
    return {"statistic": float(np.sum(logfp - 1.5 * math.log(n))) / n}


def run_kacrice_gaussian(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo annulus sum (1/n) sum log|g'(alpha)/n^1.5| for the
    complex-Gaussian model against its Kac-Rice value.

    ``quadrature_conditional`` is the direct conditional-moment value
    (limits.kac_rice_exact_mean), the one integral that the density route
    2 int_0^{T_n} psi e^{-2t/n} dt also gives with the true conditional
    variance; ``gap_conditional_in_se`` is the Monte Carlo mean's distance
    from it in standard errors.
    """
    if config.dist.kind != GAUSSIAN_COMPLEX:
        raise ConfigurationError(
            "this experiment is defined for the complex-Gaussian model")
    if config.trials < 2:
        raise ConfigurationError("the gap in standard errors needs trials >= 2")
    quads = {}
    for n in config.n_ladder:
        try:
            quads[n] = limits.kac_rice_exact_mean(n)
        except ValueError as exc:
            raise ConfigurationError(
                f"no Kac-Rice reference value at n={n}: {exc}") from None

    def reduce(n, recs):
        stats = summarize([r["statistic"] for r in recs if r["status"] == "ok"])
        quad = quads[n]
        gap = abs(stats.mean - quad) / stats.stderr
        return {"stats": asdict(stats), "quadrature_conditional": quad,
                "gap_conditional_in_se": gap}

    return _run_experiment(config, "kacrice", _kacrice_trial, ("statistic",),
                           ("nonconverged",), reduce, {})
