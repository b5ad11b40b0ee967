"""Smoke test of the benchmark at tiny sizes.

    python -m pytest benchmark/test_smoke.py

Runs every workload once untraced and once traced, each for half a second
on tiny inputs, and checks the output format the benchmark promises.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
WITH_REFERENCE = {"train_dg", "train_plain", "eval_corrupt"}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return out


def parsed(out):
    assert out.returncode == 0, out.stderr
    *_, report, result = out.stdout.splitlines()
    assert report.startswith("report: ")
    return json.loads(report[len("report: "):]), json.loads(result)


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    report, result = parsed(run(workload, trace=0))
    values = check_result(result, DECLARED["end_to_end"])
    assert all(v > 0 for v in values.values())
    if workload in WITH_REFERENCE:
        assert report["reference_items"] > 0
    else:
        assert report["quality"]["max_rel_error"] < report["quality"]["tolerance"]
    assert report["failed_frac"] == 0.0
    assert set(report["env"]) >= {"git_revision", "python", "numpy", "blas", "blas_threads",
                                  "nproc", "seed"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    report, result = parsed(run(workload, trace=1))
    values = check_result(result, DECLARED["per_layer"])
    for name, value in values.items():
        if name.endswith(".self_s"):
            assert value <= values[name[:-len("self_s")] + "busy_s"] + 1e-12, name
    # Every span the tracer records is declared in per_layer, so no time is left
    # out of the per-layer metrics: the self times of an operation's spans add up
    # to bench.op.busy_s by construction.
    assert report["spans"]["undeclared"] == []
    assert values["trace.untraced_op_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run("train_dg", trace=0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
