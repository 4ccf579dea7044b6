import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pilotc import PROFILES, compress, parse, serialize, synthetic_trajectory

ROOT = Path(__file__).resolve().parents[1]
GEO = PROFILES["geolife"]


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


def _benchmark_checks():
    """``benchmarks/checks.py``, loaded as it stands under a name of its own."""
    spec = importlib.util.spec_from_file_location("benchmark_checks",
                                                  ROOT / "benchmarks" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_benchmark_reads_of_the_model_match_its_columns(dim):
    # the untraced smoke run never calls structure_counts, so the
    # benchmark's reads of the model through its record read-out are held
    # to the columns here, on compress and parse models alike
    checks = _benchmark_checks()
    traj = synthetic_trajectory(6000, dim=dim, seed=55, jitter=1.0, gap_jitter=0.4,
                                big_gap_rate=0.01, teleport_rate=0.005)
    model = compress(traj, GEO.params(10.0, eps_t=0.01))
    assert len(model.segments) > 1 and len(model.outliers) and len(model.corrections)
    for m in (model, parse(serialize(model, GEO), GEO)):
        assert checks.grid_mismatch(m, GEO) is None
        counts = {k: v for k, (v, _) in checks.structure_counts([m], GEO, traj.n_points).items()}
        store = m.segments.store
        assert counts["count.blocks"] == store.c_f.size
        assert counts["count.coefficients"] == store.coeffs.size
        assert counts["count.fragments"] == len(m.segments)
        assert counts["count.outliers"] == len(m.outliers)
        assert counts["count.corrections"] == len(m.corrections)
