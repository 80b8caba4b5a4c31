"""Command-line front end.

Exit status: 0 on success, 1 on usage errors (bad flags, unreadable config,
output collisions without --force) and on run errors (bad coefficients, out
of memory), 2 on experiment-integrity errors.  Every experiment run writes a
manifest echoing the fully resolved configuration, so manifest + seed
reproduce any output byte for byte on the same build.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import experiments, limits
from .discriminant import CSV_COLUMNS, check_decomposable, decompose
from .errors import ExperimentIntegrityError, KacdiscError
from .experiments import ExperimentConfig, ExperimentReport
from .polynomials import (GAUSSIAN_COMPLEX, KINDS, RADEMACHER,
                          CoefficientDistribution, Coefficients, sample_kac)
from .rootfind import DEFAULT_TOL, find_roots

# Pinned reference for the printed constants table, against which the
# verdict checks the quadrature: D_* = gamma - 1/2 + log 2 - (1/2) int Phi
# = 2.7089800496... (see limits.d_star and limits.D_STAR).
D_STAR_REFERENCE = 2.70898
D_STAR_REFERENCE_TOL = 5e-5

_DIST_FLAGS = {kind.replace("_", "-"): kind for kind in KINDS}

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
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def emit_table(report: ExperimentReport, fmt: str, out_dir: Path,
               force: bool) -> list:
    """Write report.json plus per-trial records in the requested format."""
    written = [out_dir / "report.json", out_dir / f"records.{fmt}"]
    _atomic_write(written[0], report.to_json() + "\n", force)
    _atomic_write(written[1], report.records_text(fmt), force)
    return written


def _write_manifest(args, payload: dict):
    _atomic_write(Path(args.out) / "manifest.json",
                  json.dumps({"subcommand": args.subcommand, **payload},
                             sort_keys=True) + "\n", args.force)


def _deliver(args, manifest: dict, name: str, text: str):
    """Without --out write text to stdout; with it, the manifest and name."""
    if not args.out:
        sys.stdout.write(text)
        return None
    _write_manifest(args, manifest)
    path = Path(args.out) / name
    _atomic_write(path, text, args.force)
    return path


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


def _read_config(path: str) -> dict:
    try:
        base = json.loads(Path(path).read_text())
    # ValueError also covers an integer past Python's 4300-digit limit
    except (OSError, ValueError) as exc:
        raise _UsageError(f"unreadable config {path}: {exc}")
    if not isinstance(base, dict):
        raise _UsageError(f"config {path} is not a JSON object")
    unknown = sorted(set(base) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise _UsageError(f"config {path} has unknown key(s) {', '.join(unknown)}")
    dist = base.get("dist", {})
    if not isinstance(dist, dict):  # _resolve_config maps it with **
        raise _UsageError(f"config dist must be a JSON object, got {dist!r}")
    unknown = sorted(set(dist) - {f.name for f in fields(CoefficientDistribution)})
    if unknown:
        raise _UsageError(f"config {path} dist has unknown key(s) {', '.join(unknown)}")
    return base


def _given(**flags) -> dict:
    """The flags that were given on the command line."""
    return {key: v for key, v in flags.items() if v is not None}


def _resolve_config(args, default_dist: str) -> ExperimentConfig:
    """Flags over the config file's keys over the library's defaults."""
    base = _read_config(args.config) if args.config else {}
    dist = {"kind": default_dist, **base.pop("dist", {}),
            **_given(kind=_DIST_FLAGS.get(args.dist), k=args.k)}
    if args.n is not None:
        try:
            base["n_ladder"] = [int(x) for x in args.n.split(",")]
        except ValueError:
            raise _UsageError(f"bad --n list {args.n!r}")
    elif "n_ladder" not in base:
        raise _UsageError("need --n (or a config with n_ladder)")
    given = {**base, **_given(trials=args.trials, master_seed=args.seed,
                              annulus_omega=args.omega,
                              quad_factor=args.quad_factor,
                              workers=args.workers)}
    env_workers = os.environ.get("KDL_WORKERS")
    if "workers" not in given and env_workers:
        try:
            given["workers"] = int(env_workers)
        except ValueError:
            raise _UsageError(f"KDL_WORKERS must be an integer, got {env_workers!r}")
    try:
        return ExperimentConfig(dist=CoefficientDistribution(**dist), **given)
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
    try:
        dist = CoefficientDistribution(_DIST_FLAGS[args.dist], **_given(k=args.k))
        p = sample_kac(dist, args.n, args.seed, args.trial)
    except ValueError as exc:
        raise _UsageError(str(exc))
    path = _deliver(args, {"dist": dist.kind, "k": dist.k, "n": args.n,
                           "seed": args.seed, "trial": args.trial},
                    "coefficients.json", p.to_json() + "\n")
    if path:
        print(f"wrote {path} (degree {p.degree})")
    return 0


def _cmd_roots(args) -> int:
    p = _parse_coeffs(args)
    try:
        rs = find_roots(p, tol=args.tol)
    except ValueError as exc:
        raise _UsageError(f"--tol: {exc}")
    _deliver(args, {"tol": args.tol, "coeffs": json.loads(p.to_json())},
             "roots.jsonl", rs.to_jsonl())
    print(f"{rs.count} roots, max residual {float(np.max(rs.residuals)):.3e}, "
          f"{rs.iterations} iterations", file=sys.stderr)
    return 0


def _cmd_disc(args) -> int:
    p = _parse_coeffs(args)
    quad_points = args.quad_factor * (p.degree + 1)
    try:
        check_decomposable(p.degree, quad_points)
    except ValueError as exc:
        raise _UsageError(str(exc))
    br = decompose(p, find_roots(p), quad_points)
    _deliver(args, {"quad_factor": args.quad_factor,
                    "coeffs": json.loads(p.to_json())},
             "breakdown.csv", ",".join(CSV_COLUMNS) + "\n" + br.csv_row() + "\n")
    print(f"log|disc| = {br.total_log_abs_disc!r}", file=sys.stderr)
    return 0


def _cmd_experiment(name: str, args) -> int:
    default_dist = GAUSSIAN_COMPLEX if name == "kacrice" else RADEMACHER
    config = _resolve_config(args, default_dist)
    report = _EXPERIMENTS[name](config)
    if args.out:
        out = Path(args.out)
        _write_manifest(args, {"config": config.to_dict(),
                               "format": args.format})
        emit_table(report, args.format, out, args.force)
        print(f"{name}: wrote report to {out}")
    else:
        sys.stdout.write(report.to_json() + "\n")
    summary = "; ".join(
        f"n={n}: " + ", ".join(f"{k}={v:.6g}" for k, v in info.items()
                               if isinstance(v, (int, float)) and not isinstance(v, bool))
        for n, info in sorted(report.per_n.items(), key=lambda kv: int(kv[0])))
    guards = ", ".join(f"{k}={v}" for k, v in report.guards.items() if v)
    if guards:
        summary += f"; guards: {guards}"
    print(f"{name} [{config.dist.kind}, trials={config.trials}, "
          f"seed={config.master_seed}] {summary}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="kacdisc",
                 description="Random Kac polynomial discriminant laboratory")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("constants", help="print the limit-constant table")
    sp.set_defaults(run=_cmd_constants)
    sp.add_argument("--tol", type=float, default=limits.CONSTANTS_TOL)
    sp.add_argument("--table", help="comma-separated t values to tabulate")
    sp.add_argument("--table-n", type=int, default=1000)

    sp = sub.add_parser("sample", help="draw one coefficient vector")
    sp.set_defaults(run=_cmd_sample)
    sp.add_argument("--dist", choices=sorted(_DIST_FLAGS), default="rademacher")
    sp.add_argument("--K", type=int, dest="k")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trial", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("roots", help="solve for all roots")
    sp.set_defaults(run=_cmd_roots)
    sp.add_argument("--coeffs", help="ascending comma-separated coefficients")
    sp.add_argument("--coeffs-file")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("disc", help="log-discriminant breakdown of one polynomial")
    sp.set_defaults(run=_cmd_disc)
    sp.add_argument("--coeffs")
    sp.add_argument("--coeffs-file")
    sp.add_argument("--quad-factor", type=int, default=64)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")

    for name in _EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.set_defaults(run=partial(_cmd_experiment, name))
        _add_experiment_flags(sp)
    return ap


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ExperimentIntegrityError as exc:
        print(f"experiment integrity error: {exc}", file=sys.stderr)
        return 2
    except KacdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
