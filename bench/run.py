#!/usr/bin/env python3
"""kacdisc benchmark: one workload through the command-line path, timed and
checked.

Run from the root of a checkout (no install needed; ``src/`` is imported):

    python3 bench/run.py --workload lln-large --seed 1 --seconds 35 --trace 0

A workload (``spec.json``) has a few inputs: input i is one call of
``kacdisc.cli.dispatch`` with the workload's command, ``--seed <seed * 1000 +
i>`` and ``--out`` pointed at a scratch directory under ``.bench_run/``.  Such
a call is a pass.

``--trace 0`` first makes one traced pass on input 0, which certifies every
solve from its spans and warms the caches.  It then times untraced passes at
the workload's worker count, cycling through the inputs, until ``--seconds``
are spent, and prints the end-to-end metrics: trials per second over all
timed passes and the median time for a fresh interpreter to import kacdisc
(sampled between passes), both rescaled to the host's reference speed (see
``host_probe``), and the peak resident set.

``--trace 1`` makes one pass per input at one worker under the span tracer
of ``spans.py`` and prints the per-layer metrics.  The first inputs are also
run untraced at one worker, for the tracing overhead, and input 0 once more
untraced at the workload's worker count, for the pool metrics and the
worker-count independence check.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``.  The spans are written to
``.bench_run/spans-<workload>-<seed>-trace<0|1>.json`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# (module, attribute, span name).  Each function is wrapped in the namespace
# the program looks it up in, and its span is named after the layer that
# defines it, so two lookups of one function share a name.
TRACE_TARGETS = (
    ("kacdisc.experiments", "sample_kac", "polynomials.sample_kac"),
    ("kacdisc.experiments", "circle_values", "polynomials.circle_values"),
    ("kacdisc.experiments", "log_abs_deriv", "polynomials.log_abs_deriv"),
    ("kacdisc.experiments", "find_roots", "rootfind.find_roots"),
    ("kacdisc.experiments", "double_root_guard", "discriminant.double_root_guard"),
    ("kacdisc.experiments", "log_abs_discriminant",
     "discriminant.log_abs_discriminant"),
    ("kacdisc.experiments", "decompose", "discriminant.decompose"),
    ("kacdisc.rootfind", "newton_ratio", "polynomials.newton_ratio"),
    ("kacdisc.rootfind", "relative_residual", "polynomials.relative_residual"),
    ("kacdisc.discriminant", "double_root_guard",
     "discriminant.double_root_guard"),
    ("kacdisc.discriminant", "log_abs_deriv", "polynomials.log_abs_deriv"),
    ("kacdisc.discriminant", "circle_values", "polynomials.circle_values"),
    ("kacdisc.limits", "d_star", "limits.d_star"),
    ("kacdisc.limits", "kac_rice_quadrature", "limits.kac_rice_quadrature"),
    ("kacdisc.limits", "kac_rice_exact_mean", "limits.kac_rice_exact_mean"),
    ("kacdisc.cli", "emit_table", "cli.emit_table"),
    # only the companion-matrix fallback of find_roots calls it
    ("numpy.linalg", "eigvals", "numpy.linalg.eigvals"),
)
ROOT_SPAN = "cli.dispatch"
OVERHEAD_PAIRS = 3


def _observe_newton(attrs, args, kwargs, result):
    attrs["coeff_points"] = int(result.size) * int(args[0].coeffs.size)


def _observe_circle(attrs, args, kwargs, result):
    attrs["points"] = int(result.size)


def _observe_roots(attrs, args, kwargs, result):
    attrs["degree"] = int(args[0].degree)
    attrs["iterations"] = int(result.iterations)
    res = result.residuals
    attrs["residual_max"] = float(res.max()) if res.size else 0.0


def _observe_emit(attrs, args, kwargs, result):
    attrs["bytes"] = sum(Path(p).stat().st_size for p in result)


OBSERVERS = {
    "polynomials.newton_ratio": _observe_newton,
    "polynomials.circle_values": _observe_circle,
    "rootfind.find_roots": _observe_roots,
    "cli.emit_table": _observe_emit,
}

# (metric, unit, span name or "layer." prefix, field) of one traced pass.
# Over the passes of a run, counts ("count", "bytes") are averaged so that a
# rare event stays visible; times and ratios take the median.
PASS_METRICS = (
    ("polynomials.newton_ratio.s", "s", "polynomials.newton_ratio", "s"),
    ("polynomials.newton_ratio.calls", "count", "polynomials.newton_ratio", "calls"),
    ("polynomials.newton_ratio.coeff_points", "count", "polynomials.newton_ratio",
     "coeff_points"),
    ("polynomials.log_abs_deriv.s", "s", "polynomials.log_abs_deriv", "s"),
    ("polynomials.log_abs_deriv.calls", "count", "polynomials.log_abs_deriv", "calls"),
    ("polynomials.relative_residual.s", "s", "polynomials.relative_residual", "s"),
    ("polynomials.sample_kac.s", "s", "polynomials.sample_kac", "s"),
    ("polynomials.circle_values.s", "s", "polynomials.circle_values", "s"),
    ("polynomials.circle_values.points", "count", "polynomials.circle_values", "points"),
    ("rootfind.find_roots.s", "s", "rootfind.find_roots", "s"),
    ("rootfind.find_roots.self_s", "s", "rootfind.find_roots", "self_s"),
    ("rootfind.find_roots.calls", "count", "rootfind.find_roots", "calls"),
    ("rootfind.nonconverged", "count", "rootfind.find_roots", "nonconverged"),
    ("rootfind.fallbacks", "count", "numpy.linalg.eigvals", "calls"),
    ("discriminant.double_root_guard.s", "s", "discriminant.double_root_guard", "s"),
    ("discriminant.double_root_guard.calls", "count",
     "discriminant.double_root_guard", "calls"),
    ("discriminant.decompose.s", "s", "discriminant.decompose", "s"),
    ("discriminant.log_abs_discriminant.s", "s",
     "discriminant.log_abs_discriminant", "s"),
    ("discriminant.self_s", "s", "discriminant.", "self_s"),
    ("limits.s", "s", "limits.", "s"),
    ("limits.calls", "count", "limits.", "calls"),
    # dispatch time covered by no library span: the runners' own loops
    # (min-modulus refinement, reductions, summaries, KS tests) plus parsing
    ("experiments.self_s", "s", ROOT_SPAN, "self_s"),
    ("cli.emit_table.s", "s", "cli.emit_table", "s"),
    ("cli.bytes_written", "bytes", "cli.emit_table", "bytes"),
)
_COUNT_UNITS = ("count", "bytes")
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Pass:
    """One dispatch call and what it left behind."""

    seed: int
    workers: int
    attempted: int
    wall: float = 0.0
    cpu: float = 0.0
    failed: int = 0
    report: bytes = b""
    records: bytes = b""
    guards: dict = field(default_factory=dict)
    spans: range = range(0)


class Checks:
    """Output checks; every failure is one message."""

    def __init__(self, limits: dict):
        self.limits = limits
        self.failures: list[str] = []
        self.worst_route_gap = 0.0

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def outputs(self, exp: str, ladder: list, p: Pass):
        """Parse one pass's report and records; returns the record rows."""
        tag = f"seed {p.seed} workers {p.workers}"
        try:
            report = json.loads(p.report)
            rows = list(csv.DictReader(io.StringIO(p.records.decode())))
        except (ValueError, UnicodeDecodeError) as exc:
            self.failures.append(f"{tag}: outputs do not parse: {exc}")
            return []
        self.expect(len(rows) == p.attempted,
                    f"{tag}: {len(rows)} records for {p.attempted} trials")
        per_n = report.get("per_n", {})
        self.expect(sorted(per_n) == sorted(str(n) for n in ladder),
                    f"{tag}: report covers n={sorted(per_n)}")
        p.guards = report.get("guards", {})
        if exp == "lln":
            tol = self.limits["disc_route_rel_gap_max"]
            for r in rows:
                if r["status"] != "ok":
                    continue
                direct = float(r["log_abs_disc_direct"])
                gap = abs(direct - float(r["total_log_abs_disc"])) / abs(direct)
                self.worst_route_gap = max(self.worst_route_gap, gap)
                self.expect(gap <= tol, f"{tag}: n={r['n']} trial {r['trial']} "
                            f"direct and decomposed log|disc| differ by {gap:.3e}")
        elif exp == "minmod":
            for r in rows:
                self.expect(float(r["statistic_refined"]) <= float(r["statistic"]),
                            f"{tag}: trial {r['trial']} refined minimum above grid minimum")
        elif exp == "kacrice":
            most = self.limits["kacrice_gap_conditional_in_se_max"]
            for n, info in per_n.items():
                gap = info["gap_conditional_in_se"]
                self.expect(gap <= most, f"{tag}: n={n} gap_conditional_in_se {gap:.3f}")
        return rows

    def same_outputs(self, a: Pass, b: Pass):
        """Records byte-identical; report.json identical but for the echoed
        worker count (the config echo names it)."""
        self.expect(a.records == b.records,
                    f"seed {a.seed}: records differ at workers {a.workers} and {b.workers}")
        try:
            ra, rb = json.loads(a.report), json.loads(b.report)
            ra["config"]["workers"] = rb["config"]["workers"]
            same = json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
        except (ValueError, KeyError, TypeError):
            same = False
        self.expect(same, f"seed {a.seed}: report.json differs at workers "
                    f"{a.workers} and {b.workers}")

    def residuals(self, tracer: Tracer):
        most = self.limits["residual_max"]
        for s in tracer.spans:
            res = s.attrs.get("residual_max", 0.0)
            self.expect(res <= most, f"solve residual {res:.3e} above {most:g}")


def load_program():
    """Import kacdisc from this checkout's ``src/``; exits non-zero without it."""
    if not (SRC / "kacdisc" / "__init__.py").is_file():
        sys.exit(f"bench: no kacdisc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kacdisc.cli
    if not Path(kacdisc.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: kacdisc imported from {kacdisc.cli.__file__}, not {SRC}")
    return kacdisc.cli


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _ladder(wl: dict) -> list:
    argv = wl["argv"]
    return [int(n) for n in argv[argv.index("--n") + 1].split(",")]


def run_pass(cli, wl: dict, seed: int, workers: int, checks: Checks,
             tracer: Tracer | None = None) -> Pass:
    """One dispatch call into a fresh output directory, then its checks."""
    ladder = _ladder(wl)
    p = Pass(seed=seed, workers=workers, attempted=wl["trials"] * len(ladder))
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    argv = [*wl["argv"], "--trials", str(wl["trials"]), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out)]
    first = len(tracer.spans) if tracer else 0
    span = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
    sink = io.StringIO()
    cpu0 = _cpu_s()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
        t0 = time.perf_counter()
        try:
            rc = cli.dispatch(argv)
        except Exception as exc:  # a raising call fails all its trials
            rc = f"raised {type(exc).__name__}: {exc}"
        p.wall = time.perf_counter() - t0
    p.cpu = _cpu_s() - cpu0
    p.spans = range(first, len(tracer.spans) if tracer else 0)
    try:
        p.report = (out / "report.json").read_bytes()
        p.records = (out / "records.csv").read_bytes()
    except OSError as exc:
        rc = rc or f"outputs missing: {exc}"
    shutil.rmtree(out)
    if rc != 0:
        checks.failures.append(f"seed {seed}: dispatch gave {rc}; "
                               f"{sink.getvalue().strip()[-300:]}")
        p.failed = p.attempted
        return p
    rows = checks.outputs(wl["argv"][0], ladder, p)
    p.failed = sum(1 for r in rows if r["status"] == "nonconverged")
    return p


class SetupClock:
    """Times a fresh interpreter importing kacdisc (numpy and scipy with it).

    The first import fills the byte-code and page caches and is not kept.
    The timed imports are spread over the run, between passes, so that they
    sample the same machine conditions as the passes do.
    """

    def __init__(self):
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        self.times = []
        self._once()

    def _once(self) -> float:
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals and
        # the reading snaps to that grid
        subprocess.run([sys.executable, "-c", "import kacdisc"], env=self.env,
                       cwd=ROOT, check=True)
        return time.perf_counter() - t0

    def sample(self):
        self.times.append(self._once())


_PROBE_POINTS = np.random.default_rng(0).standard_normal((500, 2)) @ [1.0, 1j]
_PROBE_PAIRS = np.empty((500, 500), dtype=complex)


def _probe_kernel() -> float:
    z, d = _PROBE_POINTS, _PROBE_PAIRS
    t0 = time.perf_counter()
    for _ in range(2):
        np.subtract.outer(z, z, out=d)
        np.fill_diagonal(d, 1.0)
        np.reciprocal(d, out=d)
        d.sum(axis=1)
    acc = 0
    for i in range(40000):
        acc += i * i
    return time.perf_counter() - t0


def host_probe() -> float:
    """Seconds for a fixed kernel of the benchmark's own (an Aberth-style
    pairwise sum in numpy and a short interpreter loop), averaged over the
    processors this process may use.

    The program never runs the kernel, so a change to the program cannot
    move it; only the speed the host gives this process can.  A pool's pass
    waits for its slowest processor, so each one is timed, pinned.  The
    kernel works in a buffer allocated once and runs once untimed first, so
    neither the allocator's state nor the cache a pass leaves behind moves
    it.
    """
    if not hasattr(os, "sched_setaffinity"):
        _probe_kernel()
        return _probe_kernel()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            _probe_kernel()
            times.append(_probe_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, MiB."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def _tail_percentile(samples: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it."""
    for q in _TAIL_PERCENTILES:
        if samples * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced: list, pool: Pass,
                  same_workers: list) -> tuple:
    """Per-layer metrics from the traced passes; returns (metrics, absent,
    notes).  A metric whose spans were all absent reads 0 and is listed."""
    self_s = tracer.self_times()
    spans = tracer.spans
    per_pass = []
    for p in traced:
        agg = defaultdict(lambda: defaultdict(float))
        for i in p.spans:
            s = spans[i]
            a = agg[s.name]
            a["s"] += s.duration
            a["self_s"] += self_s[i]
            a["calls"] += 1
            a["nonconverged"] += s.attrs.get("error") == "NonConvergenceError"
            for k in ("coeff_points", "points", "bytes"):
                a[k] += s.attrs.get(k, 0)
        per_pass.append(agg)

    present = tracer.installed | {ROOT_SPAN}
    metrics, absent = {}, []

    def matches(key):
        return [n for n in present if n == key or (key.endswith(".") and n.startswith(key))]

    for name, unit, key, fld in PASS_METRICS:
        names = matches(key)
        if not names:
            absent.append(name)
        vals = [sum(agg[n][fld] for n in names) for agg in per_pass]
        agg_fn = statistics.fmean if unit in _COUNT_UNITS else statistics.median
        metrics[name] = (agg_fn(vals), unit)

    newton, roots = "polynomials.newton_ratio", "rootfind.find_roots"
    metrics["rootfind.newton_share"] = (statistics.median(
        _ratio(a[newton]["s"], a[roots]["s"]) for a in per_pass), "ratio")
    solves = [spans[i] for p in traced for i in p.spans
              if spans[i].name == roots and "iterations" in spans[i].attrs]
    # a ladder mixes degrees whose solve times differ several-fold, so the
    # percentiles are taken over the solves at its top degree
    top = max((s.attrs["degree"] for s in solves), default=0)
    ms = [s.duration * 1e3 for s in solves if s.attrs["degree"] == top]
    iters = [s.attrs["iterations"] for s in solves]
    q = _tail_percentile(len(ms))
    metrics.update({
        "rootfind.find_roots.ms.p50": (float(np.percentile(ms, 50.0)) if ms else 0.0, "ms"),
        "rootfind.find_roots.ms.tail": (float(np.percentile(ms, q)) if ms else 0.0, "ms"),
        "rootfind.find_roots.ms.samples": (len(ms), "count"),
        "rootfind.aberth_iters.mean": (statistics.fmean(iters) if iters else 0.0, "count"),
        "rootfind.aberth_iters.max": (max(iters, default=0), "count"),
        "rootfind.residual_max": (max((s.attrs["residual_max"] for s in solves),
                                      default=0.0), "ratio"),
    })
    if newton not in present or roots not in present:
        absent.append("rootfind.newton_share")
    if roots not in present:
        absent += ["rootfind.find_roots.ms.p50", "rootfind.find_roots.ms.tail",
                   "rootfind.find_roots.ms.samples", "rootfind.aberth_iters.mean",
                   "rootfind.aberth_iters.max", "rootfind.residual_max"]

    attempted = sum(p.attempted for p in traced)
    not_ok = sum(v for p in traced for k, v in p.guards.items() if k != "resampled")
    metrics["discriminant.ok_share"] = (1.0 - not_ok / attempted, "ratio")
    metrics["experiments.pool_cpu_s"] = (pool.cpu, "s")
    metrics["experiments.parallel_efficiency"] = (
        _ratio(pool.cpu, pool.workers * pool.wall), "ratio")
    metrics["trace.overhead_share"] = (
        sum(p.wall for p in traced[:len(same_workers)])
        / sum(p.wall for p in same_workers) - 1.0, "ratio")
    notes = [f"rootfind.find_roots.ms.tail is p{q:g} of {len(ms)} solves at n={top}",
             f"traced {len(traced)} passes at workers=1; pool metrics from one "
             f"untraced pass at workers={pool.workers}"]
    return metrics, absent, notes


def machine_info() -> dict:
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload's plan; returns the result with every metric this
    trace mode computes, as ``{name: (value, unit)}``."""
    start = time.perf_counter()
    cli = load_program()
    wl = spec["workloads"][name]
    seeds = [seed * 1000 + i for i in range(wl["inputs"])]
    checks = Checks(spec["checks"])
    # scratch output, temporary files included, stays inside the checkout
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK / "tmp")
    tracer = Tracer()

    def traced_passes(pass_seeds):
        for module, attr, span in TRACE_TARGETS:
            tracer.wrap(module, attr, span, OBSERVERS.get(span))
        try:
            return [run_pass(cli, wl, s, 1, checks, tracer) for s in pass_seeds]
        finally:
            tracer.restore()

    if trace:
        # the first traced passes each follow an untraced one on the same
        # inputs and worker count, so drift hits both sides of the overhead
        # ratio alike
        same_workers, traced = [], []
        for i, s in enumerate(seeds):
            if i < OVERHEAD_PAIRS:
                same_workers.append(run_pass(cli, wl, s, 1, checks))
            traced += traced_passes([s])
        for a, b in zip(same_workers, traced):
            checks.same_outputs(a, b)
        pool = same_workers[0]
        if wl["workers"] != 1:
            pool = run_pass(cli, wl, seeds[0], wl["workers"], checks)
            checks.same_outputs(pool, traced[0])
        counted = traced
    else:
        # the traced pass certifies every solve of input 0 and warms the
        # caches before anything is timed
        traced = traced_passes(seeds[:1])
        setup = SetupClock()
        imports = spec["setup_imports"]
        counted, probes = [], []
        # passes cycle through the inputs until the next one would overrun
        while True:
            spent = time.perf_counter() - start
            if len(setup.times) < imports * spent / seconds:
                setup.sample()
            probes.append(host_probe())
            s = seeds[len(counted) % len(seeds)]
            counted.append(run_pass(cli, wl, s, wl["workers"], checks))
            left = start + seconds - time.perf_counter()
            if len(counted) >= len(seeds) and left < counted[-1].wall:
                break
        while len(setup.times) < imports:
            setup.sample()
        pool = counted[0]
        checks.same_outputs(pool, traced[0])
    checks.residuals(tracer)

    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    absent, notes = [], []
    if trace:
        metrics, absent, notes = layer_metrics(tracer, traced, pool, same_workers)
    else:
        # Other tenants of the host slow this process down, by up to half
        # and for minutes at a time, and a run cannot outlast that.  So both
        # timings are rescaled by how fast the host ran the probe kernel in
        # this run against the probe's reference time: the program and the
        # probe are slowed alike, and the ratio cancels it.
        raw = attempted / sum(p.wall for p in counted)
        host_speed = spec["probe_ref_s"] / statistics.median(probes)
        notes.append(f"host speed {host_speed:.4f} (median of {len(probes)} probes "
                     f"against {spec['probe_ref_s']:g} s); as timed: trials_per_s "
                     f"{raw:.6g} 1/s, setup_s {statistics.median(setup.times):.6g} s")
        metrics = {
            "trials_per_s": (raw / host_speed, "1/s"),
            "setup_s": (statistics.median(setup.times) * host_speed, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "failed_share": (failed / attempted, "share"),
            "check_failures": (len(checks.failures), "count"),
        }
    if wl["argv"][0] == "lln":
        notes.append(f"worst direct/decomposed log|disc| gap {checks.worst_route_gap:.3e} "
                     f"(limit {spec['checks']['disc_route_rel_gap_max']:g})")
    info = machine_info()
    doc = {"workload": name, "seed": seed, "machine": info,
           "absent": sorted(tracer.absent),
           "spans": [s.to_dict() for s in tracer.spans]}
    (WORK / f"spans-{name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(doc))
    return {"correct": not checks.failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "failures": checks.failures, "absent": absent,
            "absent_targets": sorted(tracer.absent), "notes": notes, "machine": info,
            "plan": f"{len(counted)} passes over {len(seeds)} inputs of {' '.join(wl['argv'])} "
                    f"--trials {wl['trials']}, seeds {seeds[0]}..{seeds[-1]}, "
                    f"workers {1 if trace else wl['workers']}"}


def load_spec() -> dict:
    return json.loads((BENCH_DIR / "spec.json").read_text())


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    result = measure(args.workload, spec, args.seed, args.seconds, bool(args.trace))

    m = result["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    print(f"plan: {result['plan']}")
    for name, (value, unit) in result["metrics"].items():
        flag = "  (absent)" if name in result["absent"] else ""
        print(f"{name:42s} {value:>14.6g} {unit}{flag}")
    for line in result["notes"]:
        print(f"note: {line}")
    for target in result["absent_targets"]:
        print(f"absent: {target} no longer exists; not wrapped")
    for line in result["failures"]:
        print(f"check failed: {line}")
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": {}}
    for entry in wanted:
        value, unit = result["metrics"][entry["name"]]
        if unit != entry["unit"]:
            sys.exit(f"bench: {entry['name']} measured in {unit}, declared {entry['unit']}")
        out["metrics"][entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
