"""Smoke test: each workload at tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the workload's own named figures are printed, and that the output
checks pass. Timing values are not judged here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

NAMED = {
    "exact-analysis": {"analyze_s", "audit_s"},
    "monte-carlo": {"analyze_s"},
    "sessions": {"sessions_per_s", "session_p95_ms", "sessions_n4_per_s", "session_n4_p95_ms",
                 "tcp_sessions_per_s", "tcp_session_p95_ms"},
}
NAMED_EVERYWHERE = {"setup_s", "failed_share", "peak_rss_mb"}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    assert any(line.startswith("# env ") for line in lines)
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_emits_every_end_to_end_metric(workload):
    lines, result = result_of(run(workload, 0))
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    named = {line.split()[2] for line in lines if line.startswith("# metric ")}
    assert named == NAMED[workload] | NAMED_EVERYWHERE


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_every_per_layer_metric(workload):
    lines, result = result_of(run(workload, 1))
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any("seed-commit derivation" in line for line in lines)
    assert result["metrics"]["quantum.born_distribution.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("sessions", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
