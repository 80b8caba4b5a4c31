"""Command-line front end.

Exit status: 0 on success, 1 on usage errors (bad flags, unreadable config,
output collisions without --force), 2 on experiment-integrity errors.  Every
experiment run writes a manifest echoing the fully resolved configuration, so
manifest + seed reproduce any output byte for byte on the same build.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, limits
from .discriminant import decompose
from .errors import ExperimentIntegrityError, KacdiscError
from .experiments import ExperimentConfig, ExperimentReport
from .polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                          UNIFORM_INT_CENTERED, UNIFORM_INT_RAW,
                          CoefficientDistribution, Coefficients, sample_kac)
from .rootfind import find_roots

# Pinned reference for the printed constants table: D_* = gamma - 1/2 +
# log 2 - (1/2) int Phi = 2.7089800496... (see limits.d_star).
D_STAR_REFERENCE = 2.70898
D_STAR_REFERENCE_TOL = 5e-5

_DIST_FLAGS = {
    "rademacher": RADEMACHER,
    "gaussian-real": GAUSSIAN_REAL,
    "gaussian-complex": GAUSSIAN_COMPLEX,
    "uniform-int-centered": UNIFORM_INT_CENTERED,
    "uniform-int-raw": UNIFORM_INT_RAW,
}

_EXPERIMENTS = {
    "mahler": experiments.run_mahler,
    "lln": experiments.run_lln,
    "symmetry": experiments.run_symmetry,
    "clustering": experiments.run_clustering,
    "minmod": experiments.run_min_modulus,
    "kacrice": experiments.run_kacrice_gaussian,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _atomic_write(path: Path, text: str, force: bool):
    if path.exists() and not force:
        raise _UsageError(f"refusing to overwrite {path} without --force")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def emit_table(report: ExperimentReport, fmt: str, out_dir: Path,
               force: bool) -> list:
    """Write report.json plus per-trial records in the requested format."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    rp = out_dir / "report.json"
    _atomic_write(rp, report.to_json() + "\n", force)
    written.append(rp)
    if fmt == "csv":
        fp = out_dir / "records.csv"
        _atomic_write(fp, report.records_csv(), force)
    elif fmt == "jsonl":
        fp = out_dir / "records.jsonl"
        lines = [json.dumps(r, sort_keys=True) for r in report.records]
        _atomic_write(fp, "\n".join(lines) + "\n", force)
    else:
        fp = out_dir / "records.json"
        _atomic_write(fp, json.dumps(report.records, sort_keys=True) + "\n",
                      force)
    written.append(fp)
    return written


def _write_manifest(out_dir: Path, payload: dict, force: bool) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    mp = out_dir / "manifest.json"
    _atomic_write(mp, json.dumps(payload, sort_keys=True) + "\n", force)
    return mp


def _parse_coeffs(args) -> Coefficients:
    if args.coeffs_file:
        try:
            text = Path(args.coeffs_file).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read {args.coeffs_file}: {exc}")
        try:
            return Coefficients.from_json(text)
        except (ValueError, TypeError, IndexError, KeyError) as exc:
            raise _UsageError(f"{args.coeffs_file} is not a coefficient file "
                              f"({type(exc).__name__}: {exc})")
    if args.coeffs is None:
        raise _UsageError("need --coeffs or --coeffs-file")
    try:
        values = [float(x) for x in args.coeffs.split(",")]
    except ValueError:
        raise _UsageError(f"bad coefficient list {args.coeffs!r}")
    return Coefficients(np.array(values))


def _add_experiment_flags(sp):
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--dist", choices=sorted(_DIST_FLAGS))
    sp.add_argument("--K", type=int, dest="k",
                    help="support size for uniform integer kinds")
    sp.add_argument("--n", help="comma-separated degree ladder")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--omega", choices=["log2", "log3"],
                    help="annulus growth: log^2 n or log^3 n")
    sp.add_argument("--quad-factor", type=int)
    sp.add_argument("--workers", type=int,
                    help="parallel workers (default: KDL_WORKERS or 1)")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--format", choices=["csv", "jsonl", "json"],
                    default="csv")
    sp.add_argument("--force", action="store_true")


# JSON types of the config-file keys; flags are typed by the parser
_CONFIG_TYPES = {"dist": dict, "n_ladder": list, "trials": int,
                 "master_seed": int, "annulus_omega": str, "quad_factor": int,
                 "workers": int, "allow_ineligible": bool}


def _read_config(path: str) -> dict:
    try:
        base = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"unreadable config {path}: {exc}")
    if not isinstance(base, dict):
        raise _UsageError(f"config {path} is not a JSON object")
    for key, kind in _CONFIG_TYPES.items():
        if key in base and type(base[key]) is not kind:
            raise _UsageError(f"config {key} must be a JSON "
                              f"{kind.__name__}, got {base[key]!r}")
    if any(type(n) is not int for n in base.get("n_ladder", ())):
        raise _UsageError(f"config n_ladder must list integers: {base['n_ladder']!r}")
    return base


def _distribution(kind, k) -> CoefficientDistribution:
    # K is checked for every kind, so no manifest echoes an unusable K
    if type(k) is not int or k < 2:
        raise _UsageError(f"K must be an integer >= 2, got {k!r}")
    try:
        return CoefficientDistribution(kind=kind, k=k)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _resolve_config(args, default_dist: str) -> ExperimentConfig:
    base = _read_config(args.config) if args.config else {}

    def setting(flag, key, default):
        return flag if flag is not None else base.get(key, default)

    dd = base.get("dist", {})
    kind = (_DIST_FLAGS[args.dist] if args.dist
            else dd.get("kind") if dd else default_dist)
    dist = _distribution(kind, args.k if args.k is not None else dd.get("k", 240))

    if args.n is not None:
        try:
            ladder = tuple(int(x) for x in args.n.split(","))
        except ValueError:
            raise _UsageError(f"bad --n list {args.n!r}")
    elif "n_ladder" in base:
        ladder = tuple(base["n_ladder"])
    else:
        raise _UsageError("need --n (or a config with n_ladder)")

    workers = setting(args.workers, "workers", None)
    if workers is None:
        env_workers = os.environ.get("KDL_WORKERS")
        try:
            workers = int(env_workers) if env_workers else 1
        except ValueError:
            raise _UsageError(f"KDL_WORKERS must be an integer, got {env_workers!r}")
    seed = setting(args.seed, "master_seed", 0)
    if seed < 0:
        raise _UsageError(f"seed must be >= 0, got {seed}")
    try:
        return ExperimentConfig(
            dist=dist, n_ladder=ladder,
            trials=setting(args.trials, "trials", 100), master_seed=seed,
            annulus_omega=setting(args.omega, "annulus_omega", "log2"),
            quad_factor=setting(args.quad_factor, "quad_factor", 16),
            workers=workers,
            allow_ineligible=base.get("allow_ineligible", False))
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_constants(args) -> int:
    rows = []
    if args.table:
        try:
            ts = [float(x) for x in args.table.split(",")]
        except ValueError:
            raise _UsageError(f"bad --table list {args.table!r}")
        try:
            rows = [(t, limits.phi(t), limits.psi_limit(t),
                     limits.s_n_suite(args.table_n, t).psi_n) for t in ts]
        except ValueError as exc:
            raise _UsageError(f"--table/--table-n: {exc}")
    try:
        table = limits.ConstantTable.compute(tol=args.tol)
    except ValueError as exc:
        raise _UsageError(f"--tol: {exc}")
    off = table.d_star - D_STAR_REFERENCE
    verdict = "ok" if abs(off) <= D_STAR_REFERENCE_TOL else f"off by {off:+.6f}"
    print(f"gamma        = {table.gamma!r}")
    print(f"integral_phi = {table.integral_phi!r}")
    print(f"c_star       = {table.c_star!r}")
    print(f"d_star       = {table.d_star!r}  "
          f"[reference {D_STAR_REFERENCE} +/- {D_STAR_REFERENCE_TOL}: {verdict}]")
    if args.table:
        print("t,phi,psi,psi_n")
        for row in rows:
            print(",".join(repr(x) for x in row))
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    if args.seed < 0 or args.trial < 0:
        raise _UsageError("--seed and --trial must be >= 0")
    dist = _distribution(_DIST_FLAGS[args.dist],
                         240 if args.k is None else args.k)
    p = sample_kac(dist, args.n, args.seed, args.trial)
    text = p.to_json() + "\n"
    if args.out:
        out = Path(args.out)
        _write_manifest(out, {"subcommand": "sample", "dist": dist.kind,
                              "k": dist.k, "n": args.n, "seed": args.seed,
                              "trial": args.trial}, args.force)
        _atomic_write(out / "coefficients.json", text, args.force)
        print(f"wrote {out / 'coefficients.json'} (degree {p.degree})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_roots(args) -> int:
    if not args.tol > 0:
        raise _UsageError(f"--tol must be > 0, got {args.tol!r}")
    p = _parse_coeffs(args)
    rs = find_roots(p, tol=args.tol)
    text = rs.to_jsonl()
    if args.out:
        out = Path(args.out)
        _write_manifest(out, {"subcommand": "roots", "tol": args.tol,
                              "coeffs": json.loads(p.to_json())}, args.force)
        _atomic_write(out / "roots.jsonl", text, args.force)
    else:
        sys.stdout.write(text)
    print(f"{rs.count} roots, max residual {float(np.max(rs.residuals)):.3e}, "
          f"{rs.iterations} iterations", file=sys.stderr)
    return 0


def _cmd_disc(args) -> int:
    if args.quad_factor < 16:
        raise _UsageError(f"--quad-factor must be >= 16, got {args.quad_factor}")
    p = _parse_coeffs(args)
    if p.degree < 2:
        raise _UsageError("disc needs degree >= 2")
    br = decompose(p, find_roots(p), args.quad_factor * (p.degree + 1))
    header = "n,sum_inside,sum_outside,mahler_term,log_n_term,total_log_abs_disc,theorem_statistic"
    text = header + "\n" + br.csv_row() + "\n"
    if args.out:
        out = Path(args.out)
        _write_manifest(out, {"subcommand": "disc",
                              "quad_factor": args.quad_factor,
                              "coeffs": json.loads(p.to_json())}, args.force)
        _atomic_write(out / "breakdown.csv", text, args.force)
    else:
        sys.stdout.write(text)
    print(f"log|disc| = {br.total_log_abs_disc!r}", file=sys.stderr)
    return 0


def _cmd_experiment(name: str, args) -> int:
    default_dist = GAUSSIAN_COMPLEX if name == "kacrice" else RADEMACHER
    config = _resolve_config(args, default_dist)
    report = _EXPERIMENTS[name](config)
    if args.out:
        out = Path(args.out)
        manifest = {"subcommand": name, "config": config.to_dict(),
                    "format": args.format}
        _write_manifest(out, manifest, args.force)
        emit_table(report, args.format, out, args.force)
        print(f"{name}: wrote report to {out}")
    else:
        sys.stdout.write(report.to_json() + "\n")
    summary = "; ".join(
        f"n={n}: " + ", ".join(f"{k}={v:.6g}" for k, v in info.items()
                               if isinstance(v, (int, float)) and not isinstance(v, bool))
        for n, info in sorted(report.per_n.items(), key=lambda kv: int(kv[0])))
    print(f"{name} [{config.dist.kind}, trials={config.trials}, "
          f"seed={config.master_seed}] {summary}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="kacdisc",
                 description="Random Kac polynomial discriminant laboratory")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("constants", help="print the limit-constant table")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--table", help="comma-separated t values to tabulate")
    sp.add_argument("--table-n", type=int, default=1000)

    sp = sub.add_parser("sample", help="draw one coefficient vector")
    sp.add_argument("--dist", choices=sorted(_DIST_FLAGS), default="rademacher")
    sp.add_argument("--K", type=int, dest="k")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trial", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("roots", help="solve for all roots")
    sp.add_argument("--coeffs", help="ascending comma-separated coefficients")
    sp.add_argument("--coeffs-file")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("disc", help="log-discriminant breakdown of one polynomial")
    sp.add_argument("--coeffs")
    sp.add_argument("--coeffs-file")
    sp.add_argument("--quad-factor", type=int, default=64)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")

    for name in _EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        _add_experiment_flags(sp)
    return ap


def dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.subcommand == "constants":
            return _cmd_constants(args)
        if args.subcommand == "sample":
            return _cmd_sample(args)
        if args.subcommand == "roots":
            return _cmd_roots(args)
        if args.subcommand == "disc":
            return _cmd_disc(args)
        return _cmd_experiment(args.subcommand, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ExperimentIntegrityError as exc:
        print(f"experiment integrity error: {exc}", file=sys.stderr)
        return 2
    except KacdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
