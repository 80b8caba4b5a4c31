import json
import math
import struct

import numpy as np
import pytest

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


def test_disc_total_log4(capsys):
    rc, out, err = run(capsys, "disc", "--coeffs", "1,0,-1")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(math.log(4), abs=1e-12)
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
