"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

Each workload runs a few ops untraced and a few traced.  Both runs must
print every metric BENCHMARK.json names for their mode, with its unit, and
the two must give identical outcome tallies.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "smoke"
TINY = {"sweep-n3": 150, "triangle-n2": 60, "payload-large": 6}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def run_tiny(workload: str, trace: int):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    outcomes = SCRATCH / f"{workload}-{trace}.txt"
    proc = bench("--workload", workload, "--seed", 3, "--seconds", 1,
                 "--trace", trace, "--ops", TINY[workload], "--setup-reps", 2,
                 "--outcomes-file", outcomes)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines[:-1])
    assert result["attempted"] == TINY[workload] and result["failed"] == 0
    return lines, result["metrics"], Counter(outcomes.read_text().splitlines())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_and_identical_tallies(workload):
    lines, e2e, untraced = run_tiny(workload, 0)
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())
    assert any("fail_share = 0 share" in line for line in lines)

    _, layers, traced = run_tiny(workload, 1)
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers["bench.trace_verdict_mismatches"]["value"] == 0
    assert traced == untraced


def test_refuses_to_run_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", 0,
                 "--seconds", 1, "--trace", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
