"""Encode/decode benchmark for pilotc.

One run sets up one workload's seeded corpus, then repeats whole rounds of
its operations for ``--seconds`` seconds (at least three rounds):

    python3 benchmarks/run.py --workload geolife2d-tight --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, adds one round under tracemalloc, and reports
the per-layer metrics; its spans go to ``benchmarks/out/``.  ``--workload
all`` runs every workload, each in its own process.  ``--smoke`` runs one
round at small sizes with every output check on, and exits 1 if any
operation failed.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times
are in reference seconds (``refclock.py``), so that they hold still while
a shared host's speed moves.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
MIN_ROUNDS = 3


def _import_pilotc() -> None:
    """Import pilotc from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import pilotc
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pilotc from {SRC_DIR}: {exc}")
    if Path(pilotc.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"error: pilotc imported from {pilotc.__file__}, not {SRC_DIR}")


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from checks import structure_counts
    from refclock import RefClock
    from tracing import Tracer, absent_layers, layer_metrics, peak_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        clock = RefClock()
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            t, state = clock.around(lambda: wl.setup(seed, smoke, Path(tmp)))
            setups.append(t)

        tracer = Tracer()
        rounds, traced, extra = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            r = wl.run_round(state, clock.tick)
            wl.check_round(state, r, keep_models=not rounds)
            rounds.append(r)
            if trace:
                tracer.round = len(traced)
                with tracer:
                    r = wl.run_round(state, clock.tick)
                wl.check_round(state, r, keep_models=False)
                traced.append(r)
            if smoke or (len(rounds) >= MIN_ROUNDS and time.perf_counter() >= deadline):
                break
        clock.tick()
        if trace:
            memory = Tracer(memory=True)
            tracemalloc.start()
            try:
                with memory:
                    r = wl.run_round(state, lambda: None)
            finally:
                tracemalloc.stop()
            wl.check_round(state, r, keep_models=False)
            extra.append(r)

    every = rounds + traced + extra
    result = {
        "correct": not any(r.wrong for r in every),
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
    }
    first = rounds[0]
    factor = clock.factor()
    print(f"host slowness {factor:.4f} over {len(clock.samples)} kernel runs",
          file=sys.stderr)
    if not trace:
        points = sum(r.points for r in rounds)
        metrics = {
            "encode_pts_per_s": (points * factor / sum(sum(r.encode_s) for r in rounds), "points/s"),
            "decode_pts_per_s": (points * factor / sum(sum(r.decode_s) for r in rounds), "points/s"),
            "bytes_per_point": (first.container_bytes / first.points, "B/point"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics.update(peak_metrics(memory.spans))
        wall = [sum(r.encode_s) + sum(r.decode_s) for r in rounds]
        traced_wall = [sum(r.encode_s) + sum(r.decode_s) for r in traced]
        metrics["trace.overhead_s"] = (statistics.median(traced_wall) - statistics.median(wall), "s")
        for key, (value, unit) in metrics.items():
            if unit == "s":
                metrics[key] = (value / factor, unit)
        metrics["clock.factor"] = (factor, "ratio")
        metrics.update(structure_counts(first.models, state.profile, first.points))
        absent = absent_layers(metrics) + tracer.absent
        if absent:
            print(f"absent spans (reported as 0): {', '.join(absent)}", file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.json", workload=name, seed=seed)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def _print_table(title: str, result: dict) -> None:
    print(f"== {title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"   {key:<40} {m['value']:>16.6g} {m['unit']}")


def run_all(args, names) -> dict:
    """Every workload in a process of its own, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        _print_table(name, result)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    return merged


def main(argv=None) -> int:
    _import_pilotc()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small sizes, one round, every check; exit 1 on any failure")
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args, list(WORKLOADS))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        _print_table(args.workload, result)
    print(json.dumps(result))
    return 1 if args.smoke and (result["failed"] or not result["correct"]) else 0


if __name__ == "__main__":
    sys.exit(main())
