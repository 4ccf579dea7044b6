import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct():
    # one small round of every workload with all of the benchmark's output
    # checks: the eps bound on decoded positions, parse(serialize(m)) == m,
    # and the decoded grid against a scipy idct reference
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "all", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
