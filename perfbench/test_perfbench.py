"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench

The determinism tests run each workload traced twice (a few minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def _traced_counts(workload: str) -> dict:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    kinds = {name: run._layer_unit(name)[1] for name in result["metrics"]}
    return {name: m["value"] for name, m in result["metrics"].items()
            if kinds[name] in (run.COUNT, run.COUNT_RATIO)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    assert _traced_counts(workload) == _traced_counts(workload)


def test_declared_metrics_match_the_units_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.WHY) == sorted(WORKLOADS)
    for metric in declared["end_to_end"]:
        assert run.END_TO_END[metric["name"]][0] == metric["unit"]
    for metric in declared["per_layer"]:
        assert run._layer_unit(metric["name"])[0] == metric["unit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_outputs(tmp_path):
    gen = workloads.build("generate", 1, tmp_path)[1]
    assert gen.check(0, workloads.GEN_SHA256, None) is None
    assert gen.check(0, "0" * 64, None) is not None
    verify = workloads.build("oracle", 1, tmp_path)[0]
    assert verify.check(0, "", b"# truncated(20): 83 labels compared, 0 diffs\n") is None
    assert verify.check(1, "", b"# truncated(20): 83 labels compared, 1 diffs\n") is not None
    assert verify.check(0, "", b"# truncated(20): 1 labels compared, 0 diffs\n") is not None
    on_line, shifted, _ = workloads.build("check", 1, tmp_path)
    labels = workloads.system_labels(workloads.CHECK_DIM)
    clean = {"verdict": "verified", "jacobi": [],
             "residuals": [{"label": list(lb), "value": "0"} for lb in labels]}
    assert on_line.check(0, "", json.dumps(clean).encode()) is None
    # a shifted point reported as verified is a failure of the benchmark's op
    assert shifted.check(0, "", json.dumps(clean).encode()) is not None
    assert on_line.check(0, "", json.dumps(dict(clean, residuals=clean["residuals"][1:]))
                         .encode()) is not None


def test_seed_makes_the_inputs(tmp_path):
    def inputs(seed):
        ops = workloads.build("check", seed, tmp_path) + workloads.build("cocycles", seed, tmp_path)
        return [Path(a).read_text() for op in ops for a in op.args if a.endswith(".json")]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
