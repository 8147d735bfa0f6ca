"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, full_line, summary_line = proc.stdout.splitlines()
    summary = json.loads(summary_line)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in summary["metrics"].values())

    full = json.loads(full_line)
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads",
            "git_commit", "seed"} <= set(full["provenance"])
    if workload != "cli-predict-bulk":
        assert all("stop_reason" in c and "n_support" in c for c in full["calls"])


def test_traced_run_contrasts_factorization_between_workloads():
    shares = {}
    for workload in ("grow-large-support", "cli-predict-bulk"):
        proc = _run(ROOT, workload, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        shares[workload] = metrics["numerics.factor.s"]["value"]
        assert metrics["trace.overhead_ratio"]["value"] > 0.0
    assert shares["grow-large-support"] > 0.0
    assert shares["cli-predict-bulk"] == 0.0


def test_mismatched_prediction_trips_the_gate(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import labrr.cli
    import run

    exact = labrr.cli.predict
    monkeypatch.setattr(labrr.cli, "predict", lambda model, t: exact(model, t) * (1.0 + 1e-9))
    code = run.main(["--workload", "cli-predict-bulk", "--seed", "4", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny"])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False
    assert summary["failed"] >= 1
    assert summary["metrics"]["ok_ratio"]["value"] < 1.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
