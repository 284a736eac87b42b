"""Fast self-check of the benchmark on 2x2 versions of its workloads.

    python3 -m pytest -q perfbench/test_selfcheck.py

Runs every workload path untraced and traced and checks that each metric
BENCHMARK.json names is printed with its unit; then checks that a wrong
answer, an aborted sweep and a directory without the program all fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {"sweep44": "sweep22", "walk-gf2-6x6": "walk-gf2-2x2", "rank-q-5x5": "rank-q-2x2"}


def _run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _copy_checkout(tmp_path: Path) -> Path:
    dest = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench-*")
    for path in SPEC["paths"] + ["src"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_workloads_match_benchmark_json():
    assert sorted(SMOKE) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE.values()))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    rc, stdout = _run(ROOT, workload, trace)
    assert rc == 0, stdout
    result = _result(stdout)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        if not trace:
            assert got["value"] > 0, m["name"]


def test_wrong_golden_answer_fails(tmp_path):
    root = _copy_checkout(tmp_path)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["walk-gf2-2x2"][0]["report"]["depth"] += 1
    golden_path.write_text(json.dumps(golden))
    rc, stdout = _run(root, "walk-gf2-2x2", 0)
    result = _result(stdout)
    assert rc == 1 and result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_aborted_sweep_counts_every_case_not_completed(tmp_path):
    root = _copy_checkout(tmp_path)
    with open(root / "src" / "mixprod" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef _fail_on_2x2(ideal, field, _report=harness.oracle_report):\n"
            "    if (ideal.ambient.n, ideal.ambient.m) == (2, 2):\n"
            "        raise TeraiMismatch('injected')\n"
            "    return _report(ideal, field)\n\n\n"
            "harness.oracle_report = _fail_on_2x2\n"
        )
    rc, stdout = _run(root, "sweep22", 0)
    result = _result(stdout)
    assert rc == 1 and result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path)
    shutil.rmtree(root / "src")
    rc, stdout = _run(root, "sweep22", 0)
    assert rc != 0 and stdout == ""
