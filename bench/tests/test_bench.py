"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

# The real workloads' commands at toy sizes, two short inputs each.
TINY = {
    "probe_ref_s": 0.0075,
    "setup_imports": 1,
    "checks": json.loads((BENCH_DIR / "spec.json").read_text())["checks"],
    "workloads": {
        "lln-large": {"argv": ["lln", "--dist", "rademacher", "--n", "24,32"],
                      "trials": 2, "workers": 1, "inputs": 2},
        "minmod-n1024": {"argv": ["minmod", "--dist", "rademacher", "--n", "64"],
                         "trials": 3, "workers": 1, "inputs": 2},
        "kacrice-small": {"argv": ["kacrice", "--dist", "gaussian-complex",
                                   "--n", "128"],
                          "trials": 12, "workers": 2, "inputs": 2},
    },
}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY["workloads"]))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(run, "load_spec", lambda: TINY)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if not trace:
        table = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
        assert table["failed_share"] == ["0", "share"]
        assert table["check_failures"] == ["0", "count"]


def test_missing_target_is_skipped():
    tracer = Tracer()
    assert not tracer.wrap("json", "no_such_function", "json.gone")
    assert not tracer.wrap("no_such_module_for_bench", "f", "gone.f")
    assert tracer.absent == {"json.no_such_function", "no_such_module_for_bench.f"}
    assert tracer.installed == set()


def test_removed_function_reports_absent_metrics(monkeypatch):
    targets = tuple(("kacdisc.rootfind", "newton_ratio_removed", span)
                    if attr == "newton_ratio" else (module, attr, span)
                    for module, attr, span in run.TRACE_TARGETS)
    monkeypatch.setattr(run, "TRACE_TARGETS", targets)
    result = run.measure("lln-large", TINY, seed=3, seconds=1, trace=True)
    assert result["correct"]
    assert "kacdisc.rootfind.newton_ratio_removed" in result["absent_targets"]
    for name in ("polynomials.newton_ratio.s", "polynomials.newton_ratio.calls",
                 "rootfind.newton_share"):
        assert name in result["absent"]
        assert result["metrics"][name][0] == 0
    assert "rootfind.find_roots.s" not in result["absent"]
    assert result["metrics"]["rootfind.find_roots.s"][0] > 0


def test_self_times_and_top_level_coverage(tmp_path):
    cli = run.load_program()
    import kacdisc.rootfind
    original = kacdisc.rootfind.newton_ratio
    tracer = Tracer()
    for module, attr, span in run.TRACE_TARGETS:
        tracer.wrap(module, attr, span, run.OBSERVERS.get(span))
    try:
        t0 = time.perf_counter()
        with tracer.span(run.ROOT_SPAN):
            rc = cli.dispatch(["lln", "--n", "24,32", "--trials", "2", "--seed", "5",
                               "--out", str(tmp_path)])
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    assert rc == 0
    assert kacdisc.rootfind.newton_ratio is original
    spans = tracer.spans
    assert {s.name for s in spans} >= {"rootfind.find_roots", "polynomials.newton_ratio",
                                       "discriminant.decompose", "cli.emit_table"}
    assert all(t >= 0.0 for t in tracer.self_times())
    for s in spans:
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    top = [s for s in spans if s.parent < 0]
    assert [s.name for s in top] == [run.ROOT_SPAN]
    assert sum(s.duration for s in top) == pytest.approx(wall, rel=0.02)
    assert sum(tracer.self_times()) == pytest.approx(top[0].duration, rel=1e-9)


def test_host_probe_times_and_restores_affinity():
    before = os.sched_getaffinity(0)
    assert run.host_probe() > 0.0
    assert os.sched_getaffinity(0) == before
