import json
import math
import struct

import numpy as np
import pytest

from kacdisc import experiments
from kacdisc.cli import dispatch
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
    assert err == "usage error: --n must be >= 1\n"


def _one_line_error(rc, out, err):
    return (rc == 1 and out == "" and len(err.strip().splitlines()) == 1
            and "Traceback" not in err)


def test_disc_degree_one_is_usage_error(capsys):
    rc, out, err = run(capsys, "disc", "--coeffs=1,2")
    assert _one_line_error(rc, out, err)
    assert err == "usage error: disc needs degree >= 2\n"


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
], ids=["lln", "symmetry", "kacrice", "mahler", "minmod-atom-at-zero",
        "clustering-atom-at-zero", "lln-atom-at-zero",
        "symmetry-atom-at-zero"])
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
    (["lln"], {"n_ladder": [8], "allow_ineligible": "false"}),
    (["lln"], [8, 16]),
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
    (["roots", "--coeffs", "1,0,-2", "--tol", "-1"], None),
    (["roots", "--coeffs", "1,0,-2", "--tol", "nan"], None),
], ids=["K-1", "negative-seed", "bogus-kind", "string-trials",
        "string-ladder", "string-flag", "list-config", "sample-K-1",
        "sample-K-0", "sample-negative-seed", "sample-negative-trial",
        "roots-file-not-json", "roots-file-string-coeffs",
        "roots-file-list", "roots-file-ragged-coeffs",
        "disc-file-wrong-degree", "disc-quad-factor-1", "constants-tol-0",
        "constants-tol-negative", "constants-tol-nan", "roots-tol-negative",
        "roots-tol-nan"])
def test_bad_input_is_usage_error(tmp_path, capsys, monkeypatch, argv, cfg):
    monkeypatch.setattr(experiments, "_run_trials", _no_trials)
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        flag = [] if argv[-1] == "--coeffs-file" else ["--config"]
        argv = argv + flag + [str(path)]
    rc, out, err = run(capsys, *argv)
    assert _one_line_error(rc, out, err)
    assert err.startswith("usage error:")


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
