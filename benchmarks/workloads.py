"""Benchmark workloads: a seeded corpus each, and one round of timed operations.

An operation is one trajectory encoded, one container decoded, or one CLI
command.  ``run_round`` times the operations and keeps their outputs;
``check_round`` checks those outputs afterwards, outside any timed region
and outside the traced run's spans.  Library calls go through the module
attributes (``pipeline.compress``, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from pilotc import cli, container, pipeline, reconstruct
from pilotc.errors import PilotCError
from pilotc.params import PROFILES
from pilotc.synth import synthetic_trajectory

# bound at import, so checks never run through the traced run's wrappers
from pilotc.container import parse as _parse, serialize as _serialize

from checks import grid_mismatch, max_error

# `pilotc synth --kind mixed`: GPS jitter, irregular gaps, rare long gaps
# and teleports, so segmentation makes fragments and outliers
MIXED = dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.002, teleport_rate=0.0005)
# 20 Hz vehicle motion: slow speed changes and turns, centimetre noise
VEHICLE = dict(dt=0.05, speed_scale=0.3, wobble_window=40, turn_rate=0.002, jitter=0.02)

_WARMUP_POINTS = 2_000
# a 12-significant-digit text value is within this share of the value it rounds
_CSV_ROUNDING = 5e-12 * (1.0 + 1e-9)


@dataclass
class Round:
    """One round over the whole corpus.

    ``encode_s`` and ``decode_s`` hold one wall time per operation
    (infinity for an operation that failed).  ``run_round`` calls ``tick``
    between operations, outside their timed regions.
    """

    points: int = 0
    container_bytes: int = 0
    encode_s: list = field(default_factory=list)
    decode_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # operations whose output failed a check; also in failed
    outputs: list = field(default_factory=list)
    models: list = field(default_factory=list)   # parsed models, for structure counts


def _report(what: str, exc: BaseException) -> None:
    print(f"{what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def _wrong(r: Round, what: str) -> None:
    print(f"check failed: {what}", file=sys.stderr)
    r.failed += 1
    r.wrong += 1


# ---------------------------------------------------------------------------
# library workloads: compress + serialize, then parse + Reconstructor + query
# ---------------------------------------------------------------------------

@dataclass
class LibraryState:
    trajs: list
    profile: object
    params: object
    verified: dict = field(default_factory=dict)   # trajectory index -> checked bytes


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    profile: str
    eps: float
    overrides: dict
    corpus: Callable[[int, bool], list]   # (seed, smoke) -> trajectories

    def setup(self, seed: int, smoke: bool, workdir: Path) -> LibraryState:
        profile = replace(PROFILES[self.profile], **self.overrides)
        state = LibraryState(self.corpus(seed, smoke), profile, profile.params(self.eps))
        warm = state.trajs[0]
        warm = type(warm)(warm.times[:_WARMUP_POINTS], warm.points[:_WARMUP_POINTS])
        model = pipeline.compress(warm, state.params)
        parsed = container.parse(container.serialize(model, profile), profile)
        reconstruct.Reconstructor(parsed, profile).query(warm.times)
        return state

    def run_round(self, state: LibraryState, tick: Callable[[], None]) -> Round:
        r = Round()
        for i, traj in enumerate(state.trajs):
            r.points += traj.n_points
            r.attempted += 2
            tick()
            try:
                t0 = time.perf_counter()
                model = pipeline.compress(traj, state.params)
                payload = container.serialize(model, state.profile)
                t1 = time.perf_counter()
            except Exception as exc:  # counted as failed; the run goes on
                _report(f"encode trajectory {i}", exc)
                r.failed += 2
                r.encode_s.append(math.inf)
                r.decode_s.append(math.inf)
                continue
            r.encode_s.append(t1 - t0)
            r.container_bytes += len(payload)
            tick()
            try:
                t1 = time.perf_counter()
                parsed = container.parse(payload, state.profile)
                positions = reconstruct.Reconstructor(parsed, state.profile).query(traj.times)
                t2 = time.perf_counter()
            except Exception as exc:  # counted as failed; the run goes on
                _report(f"decode trajectory {i}", exc)
                r.failed += 1
                r.decode_s.append(math.inf)
                continue
            r.decode_s.append(t2 - t1)
            r.outputs.append((i, model, payload, parsed, positions))
        return r

    def check_round(self, state: LibraryState, r: Round, keep_models: bool) -> None:
        for i, model, payload, parsed, positions in r.outputs:
            if parsed != model:
                _wrong(r, f"trajectory {i}: parse(serialize(m)) != m")
            traj = state.trajs[i]
            err = max_error(traj.points, positions)
            if err > self.eps:
                _wrong(r, f"trajectory {i}: max error {err!r} exceeds eps {self.eps}")
            elif state.verified.get(i) != payload:
                problem = grid_mismatch(parsed, state.profile)
                if problem:
                    _wrong(r, f"trajectory {i}: {problem}")
                else:
                    state.verified[i] = payload
            if keep_models:
                r.models.append(parsed)
        r.outputs.clear()


def _geolife2d(seed: int, smoke: bool) -> list:
    return [synthetic_trajectory(5_000 if smoke else 200_000, dim=2, seed=seed, **MIXED)]


def _nuplan(seed: int, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    return [synthetic_trajectory(2_000 if smoke else 50_000, dim=2, seed=rng, **VEHICLE)
            for _ in range(4)]


def _geolife3d(seed: int, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    return [synthetic_trajectory(500, dim=3, seed=rng, **MIXED)
            for _ in range(20 if smoke else 400)]


# ---------------------------------------------------------------------------
# CLI workload: `pilotc compress <dir>`, then `pilotc decompress --at` per file
# ---------------------------------------------------------------------------

def _cli(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


@dataclass
class CliState:
    root: Path
    profile: object
    names: list
    originals: list        # (times, points) as read back from each CSV
    verified_plc: dict = field(default_factory=dict)
    verified_csv: dict = field(default_factory=dict)

    def path(self, kind: str, name: str) -> Path:
        suffix = {"csv": ".csv", "plc": ".plc", "ts": ".txt", "out": ".csv"}[kind]
        return self.root / kind / (name + suffix)


@dataclass(frozen=True)
class CliWorkload:
    name: str
    profile: str
    eps: float
    eps_t: float
    count: int
    points: int

    def _encode_args(self, source, target) -> list:
        return ["compress", source, "-o", target, "--epsilon", self.eps,
                "--profile", self.profile, "--eps-t", self.eps_t]

    def _decode_args(self, state: CliState, name: str) -> list:
        return ["decompress", state.path("plc", name), "-o", state.path("out", name),
                "--at", state.path("ts", name), "--profile", self.profile]

    def setup(self, seed: int, smoke: bool, workdir: Path) -> CliState:
        root = Path(tempfile.mkdtemp(dir=workdir))
        for kind in ("plc", "ts", "out"):
            (root / kind).mkdir()
        count, points = (2, 2_000) if smoke else (self.count, self.points)
        rc = _cli("synth", "-o", root / "csv", "--count", count, "--points", points,
                  "--kind", "mixed", "--seed", seed)
        if rc != 0:
            raise RuntimeError(f"pilotc synth exited with {rc}")
        names = sorted(p.stem for p in (root / "csv").glob("*.csv"))
        state = CliState(root, PROFILES[self.profile], names, [])
        for name in names:
            data = np.loadtxt(state.path("csv", name), delimiter=",", skiprows=1, ndmin=2)
            state.originals.append((data[:, 0], data[:, 1:]))
            np.savetxt(state.path("ts", name), data[:, 0], fmt="%.17g")
        # warm-up on the first file alone
        rc = _cli(*self._encode_args(state.path("csv", names[0]), state.path("plc", names[0])))
        rc = rc or _cli(*self._decode_args(state, names[0]))
        if rc != 0:
            raise RuntimeError(f"warm-up command exited with {rc}")
        return state

    def run_round(self, state: CliState, tick: Callable[[], None]) -> Round:
        r = Round(points=sum(len(t) for t, _ in state.originals),
                  attempted=1 + len(state.names))
        tick()
        t0 = time.perf_counter()
        rc = _cli(*self._encode_args(state.root / "csv", state.root / "plc"))
        r.encode_s.append(time.perf_counter() - t0 if rc == 0 else math.inf)
        if rc != 0:
            print(f"pilotc compress exited with {rc}", file=sys.stderr)
            r.failed = r.attempted
            r.decode_s = [math.inf] * len(state.names)
            return r
        for name in state.names:
            tick()
            t0 = time.perf_counter()
            rc = _cli(*self._decode_args(state, name))
            r.decode_s.append(time.perf_counter() - t0 if rc == 0 else math.inf)
            if rc != 0:
                print(f"pilotc decompress {name} exited with {rc}", file=sys.stderr)
                r.failed += 1
            r.outputs.append((name, rc))
        return r

    def check_round(self, state: CliState, r: Round, keep_models: bool) -> None:
        if not r.outputs:
            return
        profile = state.profile
        encode_ok = True
        for (name, rc), (times, points) in zip(r.outputs, state.originals):
            payload = state.path("plc", name).read_bytes()
            r.container_bytes += len(payload)
            try:
                parsed = _parse(payload, profile)
            except PilotCError as exc:
                print(f"check failed: {name}.plc: {exc}", file=sys.stderr)
                encode_ok = False
                continue
            if keep_models:
                r.models.append(parsed)
            if state.verified_plc.get(name) != payload:
                again = _serialize(parsed, profile)
                problem = (grid_mismatch(parsed, profile)
                           if again == payload and _parse(again, profile) == parsed
                           else "parse/serialize round trip differs")
                if problem:
                    print(f"check failed: {name}.plc: {problem}", file=sys.stderr)
                    encode_ok = False
                else:
                    state.verified_plc[name] = payload
            if rc != 0:
                continue
            text = state.path("out", name).read_bytes()
            if state.verified_csv.get(name) == text:
                continue
            problem = self._csv_problem(text, times, points)
            if problem:
                _wrong(r, f"{name} decompressed CSV: {problem}")
            else:
                state.verified_csv[name] = text
        if not encode_ok:
            _wrong(r, "pilotc compress output")
        r.outputs.clear()

    def _csv_problem(self, text: bytes, times, points) -> str | None:
        rows = np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (len(times), 1 + points.shape[1]):
            return f"shape {rows.shape}, expected {(len(times), 1 + points.shape[1])}"
        if np.any(np.abs(rows[:, 0] - times) > _CSV_ROUNDING * np.abs(rows[:, 0])):
            return "timestamps differ from the query"
        positions = rows[:, 1:]
        err = np.sqrt(((points - positions) ** 2).sum(axis=1))
        slack = _CSV_ROUNDING * np.sqrt((positions ** 2).sum(axis=1))
        worst = int(np.argmax(err - slack))
        if err[worst] > self.eps + slack[worst]:
            return f"max error {float(err[worst])!r} exceeds eps {self.eps} plus text rounding"
        return None


# why each workload exists: benchmarks/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    LibraryWorkload("geolife2d-tight", "geolife", 10.0, {"eps_t": 0.01}, _geolife2d),
    LibraryWorkload("nuplan-longblock", "nuplan", 0.5, {}, _nuplan),
    LibraryWorkload("geolife3d-short-l1", "geolife3d", 20.0,
                    {"eps_t": 0.01, "chunk_bits": 1}, _geolife3d),
    CliWorkload("cli-files", "geolife", 50.0, 0.01, 8, 25_000),
)}
