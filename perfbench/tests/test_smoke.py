"""Smoke test of the benchmark at tiny sizes.

Not part of the package's test suite; run it from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import END_TO_END_UNITS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LIB_ONLY = {"random_frame_p50_ms", "validate_p50_ms", "canonical_dual_p50_ms",
            "random_dual_p50_ms", "are_similar_p50_ms", "interpolate_p50_ms"}
CLI_ONLY = {"cli_validate_p50_ms", "cli_similarity_p50_ms", "cli_sample_duals_p50_ms"}
# lib-small runs but is not declared (README.md, "Known defect").
RUNNABLE = [w["name"] for w in BENCHMARK["workloads"]] + ["lib-small"]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        match = re.fullmatch(r"\s+(\S+) = (\S+) (\S+)", line)
        if match:
            printed[match.group(1)] = match.group(3)
    return result, printed


@pytest.mark.parametrize("workload", RUNNABLE)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result, printed = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    skipped = LIB_ONLY if workload.startswith("cli") else CLI_ONLY
    for name, unit in END_TO_END_UNITS.items():
        if name not in skipped:
            assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", ["lib-small", "cli-d64-p3"])
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    result, printed = _run(workload, 1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in LAYER_METRICS.items():
        assert printed.get(name) == unit, name
    assert result["metrics"]["frames.validate.calls"]["value"] > 0
