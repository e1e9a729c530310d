"""Smoke self-test of the benchmark: every workload at the tiny size.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced.  The metric names and
units printed must be exactly those of BENCHMARK.json, every job must pass
its checks, and two fixed counts (A_inf computed twice per report, the
computed bad-part bytes) must hold.  Outside a checkout the benchmark must
fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_names_match_benchmark_json(workload, trace):
    rc, out = run(workload, trace)
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
    elif workload == "weight-constants":
        assert metrics["weights.ainf_per_report"] == 2.0
    elif workload == "trees-and-series":
        # the smoke-size decomposition has 8 single-cell stopping cubes
        assert metrics["decomposition.cz_decompose.stopping_cubes"] == 8
        # bad_bytes = stopping cubes x cells (2D depth 4) x 8
        assert metrics["decomposition.cz_decompose.bad_bytes"] == 8 * 256 * 8


def test_refuses_outside_a_checkout(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no src/
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = run("trees-and-series", 0, cwd=tmp_path)
    assert rc != 0
    assert out == ""
