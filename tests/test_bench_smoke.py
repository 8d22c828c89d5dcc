"""The benchmark runs every workload once against this checkout's package and
finds its answers correct, so an API change that breaks it fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_runs_every_workload_correctly(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
