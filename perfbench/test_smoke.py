"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced, and the refusal to run where the package sources are missing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-qubit", "steady-qudit", "trajectories")


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _tiny(workload: str, trace: int) -> dict:
    res = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "tiny")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, res.stderr
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = _tiny(workload, 0)
    assert set(out["metrics"]) == _declared("end_to_end")
    for name, m in out["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    out = _tiny(workload, 1)
    assert set(out["metrics"]) == _declared("per_layer")
    m = {k: v["value"] for k, v in out["metrics"].items()}
    n = m["trace.invocations"]
    assert out["attempted"] == 2 * n  # untraced pass + traced pass
    for name in m:
        if name.endswith(".self_s"):
            assert m[name] <= m[name[:-len("self_s")] + "total_s"] + 1e-9, name
    if workload == "trajectories":
        assert m["cli.cmd_trajectories.calls"] == m["loop.sample_ensemble.calls"] == n
        assert m["loop.traj_steps"] == 200 * 5 * n
        assert m["cli.csv_rows"] == (200 * 5 + 5) * n
        assert m["loop.build_superoperator.calls"] == 0
    else:
        assert m["loop.sample_ensemble.calls"] == m["loop.traj_steps"] == 0
    if workload == "steady-qudit":
        assert m["cli.cmd_steady.calls"] == n
        assert m["cli.csv_rows"] == m["cli.csv_bytes"] == 0
    if workload == "sweep-qubit":
        assert m["cli.cmd_sweep.calls"] == n
        assert m["metrics.haar_states"] == 32 * 32 * (3 + 3 + 4)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _bench(str(tmp_path), "--workload", "sweep-qubit", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert res.returncode != 0
    assert not res.stdout.strip()
