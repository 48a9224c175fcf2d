"""Test of the benchmark's smoke mode: every workload at a tiny size.

Kept out of the package's test suite, which it would slow down:

    python3 -m pytest -q perfbench/smoke_check.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_mode_prints_every_metric_and_runs_every_check():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: OK"

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == 2 * len(spec["workloads"])  # untraced and traced per workload
    for i, line in enumerate(lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = spec["per_layer"] if i % 2 else spec["end_to_end"]
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected
        }
