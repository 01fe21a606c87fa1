"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

Run from the repository root::

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is printed with its
unit, that the outputs pass their checks, that a tampered expected
record is counted as failed operations (so the correctness check is
live), and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra: str, root: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--seed", "7", "--seconds", "0.3", *extra],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines = run_bench("--workload", workload, "--trace", str(trace), "--scale", "smoke")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(s.startswith(f"{m['name']}: ") and s.endswith(f" {m['unit']}") for s in lines)
    assert any(s.startswith("error_rate: 0.0 ") for s in lines)


def copy_bench(root) -> None:
    """BENCHMARK.json and bench/ (no caches) under ``root``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(BENCH_DIR, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize(
    "workload, field",
    [("verify-n13", "max"), ("table-n12", "min")],
)
def test_tampered_expected_record_counts_failures(tmp_path, workload, field):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"), target_is_directory=True)
    path = tmp_path / "bench" / "expected.json"
    record = json.loads(path.read_text())
    for row in record["pairs"]:
        if (row["p"], row["q"]) == (3, 4 if workload == "table-n12" else 6):
            row[field] += 1
    path.write_text(json.dumps(record))
    code, lines = run_bench(
        "--workload", workload, "--trace", "0", "--scale", "smoke", root=str(tmp_path)
    )
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    rate = next(s for s in lines if s.startswith("error_rate: "))
    assert float(rate.split()[1]) > 0


def test_refuses_to_run_without_package_source(tmp_path):
    copy_bench(tmp_path)
    code, lines = run_bench(
        "--workload", NAMES[0], "--trace", "0", "--scale", "smoke", root=str(tmp_path)
    )
    assert code != 0
    assert not any(s.startswith("{") for s in lines)
