"""Tests of the benchmark itself, on the smoke-sized workloads.

Run with: python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric_of_its_kind(trace, kind):
    proc, lines = bench("--workload", "all", "--smoke", "--seconds", "1", "--trace", trace, "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    names = {m["name"] for m in SPEC[kind]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(run.WORKLOADS)
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads for n in names}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][f"{w}.wall_s"]["value"] > 0 for w in workloads)
        assert any(line.strip().startswith("error_rate") for line in lines)
    else:
        assert result["metrics"]["prims-deep.algebra.primitive_dim"]["value"] > 0
        assert result["metrics"]["verify.verify.thm2_s"]["value"] > 0
        assert "absent entry points: none" in proc.stdout


def test_single_workload_uses_plain_metric_names(tmp_path):
    out = tmp_path / "runs.jsonl"
    proc, lines = bench("--workload", "betti", "--smoke", "--seconds", "1", "--trace", "0",
                        "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    record = json.loads(out.read_text())
    assert record["provenance"]["spinmcg_file"] == "src/spinmcg/__init__.py"
    assert record["provenance"]["nproc"] >= 1


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "betti", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_output_checks_reject_wrong_output():
    full, smoke = run.FULL, run.SMOKE
    golden = run.GOLDEN.read_text()
    assert run.check_betti(golden, full) is None
    assert run.check_betti(golden.replace("118", "119"), full) is not None
    assert run.check_betti(golden, smoke) is not None
    good = [json.dumps({"target": t, "passed": True, "pass_count": 1}) for t in run.VERIFY_TARGETS]
    assert run.check_verify("\n".join(good), full) is None
    assert run.check_verify("\n".join(good[1:]), full) is not None
    vacuous = good[:-1] + [json.dumps({"target": run.VERIFY_TARGETS[-1], "passed": True, "pass_count": 0})]
    assert run.check_verify("\n".join(vacuous), full) is not None
    row = {"degree": 13, "dim": 14, "labels": [f"p_{i}" for i in range(14)]}
    assert run.check_prims(json.dumps(row), full) is None
    assert run.check_prims(json.dumps(dict(row, labels=["p_0"] * 14)), full) is not None
    assert run.check_prims("not json", full) is not None


def test_tracer_reports_missing_entry_points_as_absent():
    t = tracer.Tracer()
    t.install("spinmcg.algebra", "QAlgebra.no_such_method", "algebra.psi")
    t.install("spinmcg.no_such_module", "f", "x")
    assert t.absent == ["spinmcg.algebra.QAlgebra.no_such_method", "spinmcg.no_such_module.f"]


def test_tracer_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(ticks))
    t = tracer.Tracer()
    inner = t.wrap(lambda: None, "inner", "child")
    outer = t.wrap(lambda: inner(), "outer", "parent")
    outer()
    # outer spans ticks 0..3 and inner spans ticks 1..2
    assert t.report()["layers_s"] == {"parent": 2, "child": 1}
