"""Exit codes of the benchmark command, and its host-speed correction."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(root, workload="classify6"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def _copy_bench(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)


def test_a_wrong_reference_answer_fails_the_run(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src" / "graphstates", tmp_path / "src" / "graphstates",
                    ignore=shutil.ignore_patterns("__pycache__"))
    table = tmp_path / "perfbench" / "reference" / "classify7.csv"
    lines = table.read_text().splitlines()
    lines[8] = lines[8].replace(",2,3,", ",2,2,")  # class 8 is a gap class: lower 2, upper 3
    assert lines[8] != table.read_text().splitlines()[8]
    table.write_text("\n".join(lines) + "\n")
    proc = _run(tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    _copy_bench(tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_op_times_are_scaled_by_the_reference_loops_around_them():
    import run
    import workloads
    ref = run.REFERENCE_S
    report = {"reference": [[0.0, ref], [1.0, 2 * ref], [2.0, 2 * ref]],
              "op_t": [0.1, 0.5, 1.5], "op_s": [0.2, 0.3, 0.4]}
    # the first two ops lie between a loop at the reference speed and one at
    # half of it; the third between two loops at half speed
    assert run.corrected(report, 1.0) == [0.2 / 1.5, 0.3 / 1.5, 0.4 / 2]
    assert run.corrected(report, 0.5) == pytest.approx([0.2 / 1.5 ** 0.5, 0.3 / 1.5 ** 0.5,
                                                        0.4 / 2 ** 0.5])
    assert set(run.SENSITIVITY) == set(workloads.WORKLOADS)
