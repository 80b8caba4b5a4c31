import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kacdisc import experiments
from kacdisc.cli import dispatch
from kacdisc.errors import NonConvergenceError
from kacdisc.polynomials import Coefficients


def run(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_constants_prints_table(capsys):
    rc, out, _ = run(capsys, "constants")
    assert rc == 0
    assert "gamma" in out and "d_star" in out and "2.70898" in out
    line = [l for l in out.splitlines() if l.startswith("d_star")][0]
    assert float(line.split("=")[1].split()[0]) > 0
    assert line.endswith(": ok]")


def test_constants_table_flag(capsys):
    rc, out, _ = run(capsys, "constants", "--table", "0.5,1.0", "--table-n", "64")
    assert rc == 0
    assert "t,phi,psi,psi_n" in out


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "lln", "--no-such-flag")[0] == 1


def test_sample_stdout_and_roundtrip(capsys):
    rc, out, _ = run(capsys, "sample", "--dist", "rademacher", "--n", "8",
                     "--seed", "42", "--trial", "0")
    assert rc == 0
    p = Coefficients.from_json(out)
    assert p.degree == 8
    assert set(np.unique(p.coeffs)) <= {-1.0, 1.0}


def test_roots_jsonl(capsys):
    rc, out, err = run(capsys, "roots", "--coeffs=-1,0,1")
    assert rc == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) == 2
    assert sorted(r["re"] for r in rows) == pytest.approx([-1.0, 1.0])
    assert "max residual" in err


def test_roots_of_monomial(capsys):
    rc, out, err = run(capsys, "roots", "--coeffs=0,0,1")
    assert rc == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert [(r["re"], r["im"]) for r in rows] == [(0.0, 0.0), (0.0, 0.0)]
    assert err.startswith("2 roots")


def test_roots_of_huge_coefficients(capsys):
    # the residual scale of 1e308 coefficients overflows float64; the
    # solve is scaled, so the roots are exp(+-2 pi i / 3) and certified
    rc, out, err = run(capsys, "roots", "--coeffs", "1e308,1e308,1e308")
    assert rc == 0
    rows = sorted((json.loads(l) for l in out.strip().splitlines()),
                  key=lambda r: r["im"])
    want = np.exp(2j * np.pi / 3 * np.array([-1, 1]))
    for r, root in zip(rows, want):
        assert abs(complex(r["re"], r["im"]) - root) <= 1e-15
        assert r["residual"] <= 1e-12
    assert err.startswith("2 roots")


@pytest.mark.parametrize("ladder", ["0", "-3,16", "0,16"])
def test_degree_below_one_is_usage_error(capsys, ladder):
    rc, _, err = run(capsys, "minmod", "--dist", "rademacher",
                     f"--n={ladder}", "--trials", "2")
    assert rc == 1
    assert err.startswith("usage error:") and "n_ladder" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_sample_degree_below_one_is_usage_error(capsys):
    rc, _, err = run(capsys, "sample", "--n", "0")
    assert rc == 1
    assert err == "usage error: degree must be >= 1\n"


def _one_line_error(rc, out, err):
    return (rc == 1 and out == "" and len(err.strip().splitlines()) == 1
            and "Traceback" not in err)


def test_disc_degree_one_is_usage_error(capsys):
    rc, out, err = run(capsys, "disc", "--coeffs=1,2")
    assert _one_line_error(rc, out, err)
    assert err == "usage error: decomposition needs degree >= 2\n"


@pytest.mark.parametrize("argv, message", [
    (["--coeffs=1,2"], "decomposition needs degree >= 2"),
    (["--coeffs=1,0,-2", "--quad-factor", "15"],
     "quad_points must be at least 16*(degree+1)"),
])
def test_disc_checks_input_before_solving(capsys, monkeypatch, argv, message):
    from kacdisc import cli

    def no_solve(p, *args):
        raise AssertionError("find_roots ran")

    monkeypatch.setattr(cli, "find_roots", no_solve)
    rc, out, err = run(capsys, "disc", *argv)
    assert _one_line_error(rc, out, err)
    assert err == f"usage error: {message}\n"


def _no_trials(*args):
    raise AssertionError("a trial ran")


_ATOM_AT_ZERO = ["--dist", "uniform-int-centered", "--K", "3", "--n", "16"]
_INELIGIBLE_OK = {"allow_ineligible": True}


@pytest.mark.parametrize("argv,cfg,needle", [
    (["lln", "--n", "1"], None, "n=1"),
    (["symmetry", "--n", "1"], None, "n=1"),
    (["kacrice", "--n", "1"], None, "n=1"),
    (["mahler", "--n", "1"], None, "n=1"),
    (["minmod"] + _ATOM_AT_ZERO, None, "K=3"),
    (["clustering"] + _ATOM_AT_ZERO, None, "K=3"),
    (["lln"] + _ATOM_AT_ZERO, _INELIGIBLE_OK, "K=3"),
    (["symmetry"] + _ATOM_AT_ZERO, _INELIGIBLE_OK, "K=3"),
    (["mahler", "--dist", "uniform-int-centered", "--K", "5", "--n", "16"],
     None, "K=5"),
], ids=["lln", "symmetry", "kacrice", "mahler", "minmod-atom-at-zero",
        "clustering-atom-at-zero", "lln-atom-at-zero",
        "symmetry-atom-at-zero", "mahler-atom-at-zero"])
def test_experiment_degree_one_fails_before_any_trial(tmp_path, capsys,
                                                      monkeypatch, argv, cfg,
                                                      needle):
    monkeypatch.setattr(experiments, "_run_trials", _no_trials)
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(path)]
    rc, out, err = run(capsys, *argv, "--trials", "2")
    assert _one_line_error(rc, out, err)
    assert err.startswith("error:") and needle in err


def test_mahler_degree_one_runs_for_gaussian(capsys):
    rc, _, _ = run(capsys, "mahler", "--dist", "gaussian-real", "--n", "1",
                   "--trials", "2")
    assert rc == 0


@pytest.mark.parametrize("argv,cfg", [
    (["lln", "--dist", "uniform-int-centered", "--K", "1", "--n", "8"], None),
    (["lln", "--n", "8", "--seed", "-1"], None),
    (["lln"], {"dist": {"kind": "bogus"}, "n_ladder": [8]}),
    (["lln"], {"trials": "x", "n_ladder": [8]}),
    (["lln"], {"n_ladder": "16"}),
    (["lln"], {"n_ladder": 16}),
    (["lln"], {"dist": None, "n_ladder": [8]}),
    (["lln"], {"n_ladder": [8], "allow_ineligible": "false"}),
    (["lln"], [8, 16]),
    (["lln"], {"n_ladder": [8], "trails": 50}),
    (["clustering"], {"dist": {"kind": "uniform_int_centered", "K": 5},
                      "n_ladder": [16], "trials": 3}),
    (["lln"], {"dist": {"kind": "rademacher", "coeffs": "abc"},
               "n_ladder": [8]}),
    (["lln"], {"dist": {"kind": "rademacher", "coeffs": [1, 10 ** 400]},
               "n_ladder": [1]}),
    (["minmod"], {"dist": {"kind": "fixed"}, "n_ladder": [2]}),
    (["lln"], '{"n_ladder": [1' + "0" * 5000 + "]}"),
    (["minmod"], {"dist": {"kind": "rademacher", "coeffs": [1, 2]},
                  "n_ladder": [16]}),
    (["lln"], {"dist": {"kind": "rademacher", "coeffs": []},
               "n_ladder": [8]}),
    (["sample", "--n", "3", "--dist", "uniform-int-centered", "--K", "1"], None),
    (["sample", "--n", "3", "--K", "0"], None),
    (["sample", "--n", "3", "--seed", "-1"], None),
    (["sample", "--n", "3", "--trial", "-1"], None),
    (["roots", "--coeffs-file"], "not json"),
    (["roots", "--coeffs-file"], {"coeffs": "abc"}),
    (["roots", "--coeffs-file"], [1, 2]),
    (["roots", "--coeffs-file"], {"coeffs": [1, [2]]}),
    (["disc", "--coeffs-file"], {"degree": 5, "coeffs": [1, 2]}),
    (["disc", "--coeffs", "1,0,-2", "--quad-factor", "1"], None),
    (["constants", "--tol", "0"], None),
    (["constants", "--tol", "-1"], None),
    (["constants", "--tol", "nan"], None),
    (["constants", "--tol", "inf"], None),
    (["constants", "--tol", "1e-3"], None),
    (["lln", "--n", "8,x"], None),
    (["lln", "--trials", "3"], None),
    (["roots", "--coeffs", "1,x"], None),
    (["disc", "--coeffs-file"], None),
    (["constants", "--table", "1,x"], None),
    (["roots", "--coeffs", "1,0,-2", "--tol", "-1"], None),
    (["roots", "--coeffs", "1,0,-2", "--tol", "nan"], None),
    (["roots", "--coeffs=-2,0,1", "--tol", "10"], None),
], ids=["K-1", "negative-seed", "bogus-kind", "string-trials",
        "string-ladder", "int-ladder", "null-dist", "string-flag",
        "list-config", "misspelt-key",
        "misspelt-dist-key", "string-dist-coeffs",
        "huge-dist-coeffs", "fixed-dist", "5000-digit-int",
        "rademacher-dist-coeffs", "empty-dist-coeffs",
        "sample-K-1", "sample-K-0", "sample-negative-seed",
        "sample-negative-trial",
        "roots-file-not-json", "roots-file-string-coeffs",
        "roots-file-list", "roots-file-ragged-coeffs",
        "disc-file-wrong-degree", "disc-quad-factor-1", "constants-tol-0",
        "constants-tol-negative", "constants-tol-nan", "constants-tol-inf",
        "constants-tol-1e-3", "bad-n-list", "no-ladder", "bad-coeffs-list",
        "missing-coeffs-file", "bad-table-list", "roots-tol-negative",
        "roots-tol-nan", "roots-tol-10"])
def test_bad_input_is_usage_error(tmp_path, capsys, monkeypatch, argv, cfg):
    monkeypatch.setattr(experiments, "_run_trials", _no_trials)
    path = tmp_path / "cfg.json"  # a --coeffs-file without cfg is missing
    if cfg is not None:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    if cfg is not None or argv[-1] == "--coeffs-file":
        flag = [] if argv[-1] == "--coeffs-file" else ["--config"]
        argv = argv + flag + [str(path)]
    rc, out, err = run(capsys, *argv)
    assert _one_line_error(rc, out, err)
    assert err.startswith("usage error:")
    if isinstance(cfg, dict) and "coeffs" in (cfg.get("dist") or {}):
        assert "coeffs" in err  # a dist holds only kind and k


def test_constants_table_degree_below_two_is_usage_error(capsys):
    rc, out, err = run(capsys, "constants", "--table", "1", "--table-n", "0")
    assert _one_line_error(rc, out, err)
    assert err.startswith("usage error: --table/--table-n:")


def test_disc_total_log4(capsys):
    rc, out, err = run(capsys, "disc", "--coeffs", "1,0,-1")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(math.log(4), abs=1e-12)
    # roots +-1 lie on the circle: no split, the direct total and statistic
    assert ",".join(row) == ("2,nan,nan,nan,2.0794415416798357,"
                             "1.3862943611198906,-0.6931471805599453")
    assert "log|disc|" in err


def test_missing_coeffs_usage_error(capsys):
    assert run(capsys, "disc")[0] == 1


def test_bad_worker_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("KDL_WORKERS", "abc")
    rc, out, err = run(capsys, "lln", "--n", "8", "--trials", "1")
    assert rc == 1
    assert err.startswith("usage error:") and "KDL_WORKERS" in err
    assert out == ""
    # an explicit --workers flag does not read the variable
    assert run(capsys, "lln", "--n", "8", "--trials", "1", "--workers", "1")[0] == 0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_coeffs_one_line_error(capsys, bad):
    for sub in ("roots", "disc"):
        rc, out, err = run(capsys, sub, f"--coeffs=1,{bad},1")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,name", [
    (["sample", "--n", "8", "--seed", "42"], "coefficients.json"),
    (["roots", "--coeffs=-1,0,1"], "roots.jsonl"),
    (["disc", "--coeffs", "1,0,-2,1"], "breakdown.csv"),
], ids=["sample", "roots", "disc"])
def test_out_writes_stdout_bytes_and_manifest(tmp_path, capsys, argv, name):
    rc, stdout, _ = run(capsys, *argv)
    assert rc == 0
    out = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([name, "manifest.json"])
    assert (out / name).read_text() == stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == argv[0]
    rc, rerun_out, err = run(capsys, *argv, "--out", str(out))
    assert _one_line_error(rc, rerun_out, err)
    assert err.startswith("usage error: refusing to overwrite")


def test_lln_outputs_byte_identical(tmp_path, capsys):
    args = ["lln", "--dist", "rademacher", "--n", "16,24", "--trials", "4",
            "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out", str(d1))[0] == 0
    assert run(capsys, *args, "--out", str(d2))[0] == 0
    for name in ("report.json", "records.csv", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_output_collision_requires_force(tmp_path, capsys):
    args = ["minmod", "--dist", "rademacher", "--n", "16", "--trials", "2",
            "--seed", "1", "--out", str(tmp_path)]
    assert run(capsys, *args)[0] == 0
    assert run(capsys, *args)[0] == 1      # refuse to overwrite
    assert run(capsys, *args, "--force")[0] == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"dist": {"kind": "rademacher", "k": 240}, "n_ladder": [16],
           "trials": 3, "master_seed": 9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc, _, _ = run(capsys, "mahler", "--config", str(path), "--trials", "5",
                   "--out", str(out_dir))
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["trials"] == 5          # flag wins
    assert manifest["config"]["master_seed"] == 9     # file value kept


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert run(capsys, "lln", "--config", str(tmp_path / "nope.json"),
               "--n", "16")[0] == 1


def test_config_keep_records_false_writes_header_only(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_ladder": [16], "trials": 3,
                                "keep_records": False}))
    kept, dropped = tmp_path / "kept", tmp_path / "dropped"
    assert run(capsys, "minmod", "--n", "16", "--trials", "3",
               "--out", str(kept))[0] == 0
    assert run(capsys, "minmod", "--config", str(path),
               "--out", str(dropped))[0] == 0
    header = (kept / "records.csv").read_text().splitlines(keepends=True)[0]
    assert (dropped / "records.csv").read_text() == header
    manifest = json.loads((dropped / "manifest.json").read_text())
    assert manifest["config"]["keep_records"] is False
    report, full = (json.loads((d / "report.json").read_text())
                    for d in (dropped, kept))
    assert report["per_n"] == full["per_n"]


def test_out_of_memory_is_one_line_error(capsys, monkeypatch):
    # never by a real allocation: with memory overcommit a huge --n can
    # bring on the OOM killer instead of a MemoryError
    def no_memory(*args):
        raise MemoryError("Unable to allocate 22.4 GiB for an array with "
                          "shape (3000000001,) and data type float64")
    monkeypatch.setattr(experiments, "sample_kac", no_memory)
    rc, out, err = run(capsys, "lln", "--n", "16", "--trials", "2",
                       "--workers", "1")
    assert _one_line_error(rc, out, err)
    assert err.startswith("error: out of memory: Unable to allocate")


def test_integrity_error_exits_2(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise NonConvergenceError("injected", 1.0)
    monkeypatch.setattr(experiments, "find_roots", no_convergence)
    rc, out, err = run(capsys, "lln", "--n", "8", "--trials", "4",
                       "--workers", "1")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("experiment integrity error:")


def test_degree_without_usable_trial_exits_2(capsys):
    # Rademacher n=3 draws a repeated root in each of seed 0's first three
    # trials, which leaves the KS test no sample at n=3
    rc, out, err = run(capsys, "symmetry", "--dist", "rademacher", "--n", "3",
                       "--trials", "3", "--seed", "0")
    assert rc == 2 and out == ""
    assert err == ("experiment integrity error: no usable trial at n=3 "
                   "(double_root=3)\n")


def test_summary_line_names_left_out_trials(capsys):
    rc, _, err = run(capsys, "mahler", "--n", "15", "--trials", "40",
                     "--seed", "1")
    assert rc == 0 and err.endswith("; guards: grid_root=19\n")
    rc, _, err = run(capsys, "minmod", "--n", "16", "--trials", "2")
    assert rc == 0 and "guards" not in err


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv,loads", [
    (None, False),
    (["minmod", "--n", "16", "--trials", "2"], False),
    (["roots", "--coeffs", "1,0,-2"], False),
    (["lln", "--n", "16", "--trials", "2"], False),
    (["kacrice", "--n", "128", "--trials", "2"], False),
    (["constants"], True),
], ids=["import", "minmod", "roots", "lln", "kacrice", "constants"])
def test_only_quadrature_runs_load_scipy(argv, loads):
    # scipy.integrate is most of a fresh `import kacdisc` and half of a
    # run's memory, so only `constants`, which derives D_* by quad, may
    # load it
    code = [f"import sys; sys.path.insert(0, {str(_SRC)!r})", "import kacdisc"]
    if argv is not None:
        code.append(f"from kacdisc import cli; assert cli.dispatch({argv!r}) == 0")
    code.append("import json; print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", "\n".join(code)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    if loads:
        assert "scipy.integrate" in loaded
    else:
        assert loaded == []


def test_records_jsonl_format(tmp_path, capsys):
    rc, _, _ = run(capsys, "minmod", "--dist", "rademacher", "--n", "16",
                   "--trials", "3", "--seed", "2", "--format", "jsonl",
                   "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["n"] == 16


def test_report_json_roundtrip(tmp_path, capsys):
    rc, _, _ = run(capsys, "minmod", "--dist", "rademacher", "--n", "16",
                   "--trials", "3", "--seed", "2", "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == 1
    assert json.dumps(payload, sort_keys=True) == \
        (tmp_path / "report.json").read_text().strip()


def test_csv_floats_roundtrip_lossless():
    rng = np.random.default_rng(0)
    # random doubles with full mantissa coverage
    raw = rng.integers(0, 2 ** 64, 200, dtype=np.uint64)
    for r in raw:
        x = struct.unpack("<d", struct.pack("<Q", int(r)))[0]
        if math.isnan(x) or math.isinf(x):
            continue
        assert float(repr(x)) == x
