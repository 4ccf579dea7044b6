"""Command line tool: compress, decompress, eval, synth.

Exit codes: 0 success, 1 usage error, 2 data error, 3 format or corruption
error.  Coordinates are assumed to be already projected to a local Cartesian
frame in meters; geodetic conversion is out of scope.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import container, metrics
from .errors import (
    CorruptionError,
    DataError,
    FormatError,
    PilotCError,
    QueryRangeError,
    TruncationError,
)
from .model import TrajectoryRecord
from .params import DEFAULT_PROFILE, PROFILES, CodecParams, Profile
from .pipeline import compress
from .reconstruct import Reconstructor, decompress_uniform
from .synth import synthetic_trajectory

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_FORMAT = 3


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def read_trajectory_csv(path, dedup: bool = False) -> TrajectoryRecord:
    """Read a 't,x,y[,z]' CSV with strictly increasing timestamps."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        columns = header.split(",")
        if len(columns) < 2 or columns[0] != "t":
            raise DataError(f"{path}: line 1: expected header 't,x,y[,z]', got '{header}'")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError:
            _raise_with_line_number(path)
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(columns):
        raise DataError(f"{path}: rows have {data.shape[1]} fields, header has {len(columns)}")
    times = data[:, 0]
    points = data[:, 1:]
    if dedup and times.shape[0] > 1:
        keep = np.concatenate([[True], np.diff(times) > 0.0])
        times, points = times[keep], points[keep]
    rec = TrajectoryRecord(times, points)
    try:
        rec.validate()
    except DataError as exc:
        hint = " (rerun with --dedup)" if "strictly increasing" in str(exc) and not dedup else ""
        raise DataError(f"{path}: {exc}{hint}") from exc
    return rec


def _raise_with_line_number(path: Path):
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                [float(v) for v in line.strip().split(",")]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cannot parse '{line.strip()}'") from None
    raise DataError(f"{path}: malformed CSV")


_CSV_BLOCK_ROWS = 1 << 14  # rows per formatting pass, to bound the text held at once


def write_positions_csv(path, times, points) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    path = Path(path)
    points = np.asarray(points)
    header = "t," + ",".join("xyz"[d] if d < 3 else f"c{d}" for d in range(points.shape[1]))
    table = np.column_stack([times, points])
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            # one % operation formats a whole block of rows
            for i in range(0, len(table), _CSV_BLOCK_ROWS):
                block = table[i:i + _CSV_BLOCK_ROWS]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_bytes_atomic(path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", choices=sorted(PROFILES), default=DEFAULT_PROFILE.name,
                   help="named dataset constants (default %(default)s)")
    p.add_argument("--a", type=float, help="override constant a (eps_f = eps/a)")
    p.add_argument("--b", type=float, help="override constant b (block size slope)")
    p.add_argument("--c", type=float, help="override constant c (block size offset)")
    p.add_argument("--d", type=float, help="override constant d (retention scale)")
    p.add_argument("--vmax", type=float, help="segmentation speed threshold, m/s")
    p.add_argument("--eps-t", type=float, help="time precision, seconds")
    p.add_argument("--chunk-bits", type=int, help="varint chunk length (default 2)")
    p.add_argument("--eps-p-factor", type=float, help="point precision as a fraction of eps")


def _profile_from_args(args) -> Profile:
    base = PROFILES[args.profile]
    overrides = {}
    for field, attr in (("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
                        ("v_max", "vmax"), ("eps_t", "eps_t"),
                        ("chunk_bits", "chunk_bits"), ("eps_p_factor", "eps_p_factor")):
        v = getattr(args, attr)
        if v is not None:
            overrides[field] = v
    try:
        return replace(base, **overrides) if overrides else base
    except ValueError as exc:
        raise _Usage(str(exc)) from exc


def _params_from_args(args, profile: Profile) -> CodecParams:
    if args.epsilon is None:
        raise _Usage("--epsilon is required")
    if args.epsilon <= 0:
        raise _Usage(f"--epsilon must be positive, got {args.epsilon}")
    try:
        return profile.params(args.epsilon)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc


class _Usage(Exception):
    pass


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_compress(args) -> int:
    profile = _profile_from_args(args)
    params = _params_from_args(args, profile)
    src = Path(args.input)
    dst = Path(args.output)
    if src.is_dir():
        inputs = sorted(src.glob("*.csv"))
        if not inputs:
            raise DataError(f"{src}: no .csv files found")
        dst.mkdir(parents=True, exist_ok=True)
        pairs = [(f, dst / (f.stem + ".plc")) for f in inputs]
    else:
        pairs = [(src, dst)]
    for inp, outp in pairs:
        traj = read_trajectory_csv(inp, dedup=args.dedup)
        model = compress(traj, params)
        payload = container.serialize(model, profile)
        _write_bytes_atomic(outp, payload)
        print(f"{inp.name}: {traj.n_points} points -> {len(payload)} bytes, "
              f"{len(model.corrections)} corrections, {len(model.outliers)} outliers")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    if (args.at is None) == (not args.grid):
        raise _Usage("exactly one of --at or --grid is required")
    profile = _profile_from_args(args)
    data = Path(args.input).read_bytes()
    model = container.parse(data, profile)
    if args.grid:
        series = decompress_uniform(model, profile)
        times = np.concatenate([s.grid_times() for s in series]) if series else np.zeros(0)
        points = (np.concatenate([s.values for s in series])
                  if series else np.zeros((0, model.dim)))
    else:
        times = _read_timestamps(Path(args.at))
        points = Reconstructor(model, profile).query(times)
    write_positions_csv(args.output, times, points)
    print(f"{args.output}: {len(times)} rows")
    return EXIT_OK


def _read_timestamps(path: Path) -> np.ndarray:
    try:
        values = np.loadtxt(path, ndmin=1)
    except ValueError:
        raise DataError(f"{path}: timestamps file must hold one number per line") from None
    if values.ndim != 1:
        raise DataError(f"{path}: timestamps file must hold one number per line")
    return values


def _cmd_eval(args) -> int:
    originals_dir = Path(args.originals)
    csv_files = sorted(originals_dir.glob("*.csv"))
    if not csv_files:
        raise DataError(f"{originals_dir}: no .csv files found")
    profile = _profile_from_args(args)
    rows: list[metrics.EvalReport] = []

    if args.epsilon_list:
        eps_values = _parse_epsilon_list(args.epsilon_list)
        trajs = [read_trajectory_csv(f, dedup=args.dedup) for f in csv_files]
        for eps in eps_values:
            params = profile.params(eps)
            payload_total = 0
            raw_total = 0
            sed_sum = 0.0
            sed_max = 0.0
            n_total = 0
            n_corr = 0
            for traj in trajs:
                model = compress(traj, params)
                payload = container.serialize(model, profile)
                payload_total += len(payload)
                raw_total += metrics.raw_size_bytes(traj.n_points, traj.dim)
                approx = Reconstructor(model, profile).query(traj.times)
                d = np.linalg.norm(traj.points - approx, axis=1)
                sed_sum += float(d.sum())
                sed_max = max(sed_max, float(d.max()))
                n_total += traj.n_points
                n_corr += len(model.corrections)
            rows.append(metrics.EvalReport(
                name="sweep", n_points=n_total, dim=trajs[0].dim,
                raw_bytes=raw_total, compressed_bytes=payload_total,
                compression_ratio=payload_total / raw_total,
                max_sed=sed_max, mean_sed=sed_sum / n_total,
                corrected_fraction=n_corr / n_total, eps=eps,
            ))
        ratios = [r.compression_ratio for r in rows]
        means = [r.mean_sed for r in rows]
        monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        r2 = _linear_fit_r2(eps_values, means)
        _emit(rows, args.format)
        print(f"# ratio_monotone_nonincreasing={monotone} mean_sed_linear_r2={r2:.4f}")
        return EXIT_OK

    if not args.compressed:
        raise _Usage("--compressed is required unless --epsilon-list is given")
    compressed_dir = Path(args.compressed)
    for f in csv_files:
        plc = compressed_dir / (f.stem + ".plc")
        if not plc.exists():
            raise DataError(f"{plc}: missing compressed counterpart of {f.name}")
        traj = read_trajectory_csv(f, dedup=args.dedup)
        payload = plc.read_bytes()
        model = container.parse(payload, profile)
        report = metrics.EvalReport(
            name=f.stem, n_points=traj.n_points, dim=traj.dim,
            raw_bytes=metrics.raw_size_bytes(traj.n_points, traj.dim),
            compressed_bytes=len(payload),
            compression_ratio=len(payload) / metrics.raw_size_bytes(traj.n_points, traj.dim),
            corrected_fraction=len(model.corrections) / traj.n_points,
            eps=model.eps,
        )
        if args.at_original_timestamps:
            approx = Reconstructor(model, profile).query(traj.times)
            report.max_sed = metrics.max_sed(traj.points, approx)
            report.mean_sed = metrics.mean_sed(traj.points, approx)
        rows.append(report)
    total_raw = sum(r.raw_bytes for r in rows)
    total_comp = sum(r.compressed_bytes for r in rows)
    aggregate = metrics.EvalReport(
        name="TOTAL", n_points=sum(r.n_points for r in rows), dim=rows[0].dim,
        raw_bytes=total_raw, compressed_bytes=total_comp,
        compression_ratio=total_comp / total_raw,
        corrected_fraction=(sum(r.corrected_fraction * r.n_points for r in rows)
                            / sum(r.n_points for r in rows)),
    )
    if args.at_original_timestamps:
        aggregate.max_sed = max(r.max_sed for r in rows)
        aggregate.mean_sed = (sum(r.mean_sed * r.n_points for r in rows)
                              / sum(r.n_points for r in rows))
    rows.append(aggregate)
    _emit(rows, args.format)
    return EXIT_OK


def _parse_epsilon_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise _Usage(f"--epsilon-list must be comma-separated numbers, got '{text}'") from None
    if not values or any(v <= 0 for v in values):
        raise _Usage("--epsilon-list needs positive values")
    return values


def _linear_fit_r2(x, y) -> float:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if len(x) < 2:
        return 1.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float((resid ** 2).sum()) / ss_tot


def _emit(rows, fmt: str) -> None:
    if fmt == "jsonl":
        for r in rows:
            print(r.to_json())
    else:
        print(metrics.EvalReport.CSV_HEADER)
        for r in rows:
            print(r.to_csv_row())


def _cmd_synth(args) -> int:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    kinds = {
        "smooth": dict(),
        "jittery": dict(jitter=2.0),
        "nonuniform": dict(gap_jitter=0.6, big_gap_rate=0.002),
        "mixed": dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.002,
                      teleport_rate=0.0005),
    }
    if args.kind not in kinds:
        raise _Usage(f"--kind must be one of {sorted(kinds)}")
    for i in range(args.count):
        traj = synthetic_trajectory(
            args.points, dim=args.dim, dt=args.dt, seed=rng, **kinds[args.kind])
        name = out / f"{args.kind}_{i:03d}.csv"
        write_positions_csv(name, traj.times, traj.points)
        print(f"{name}: {traj.n_points} points, dim {traj.dim}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pilotc",
                                description="Error-bounded DCT trajectory compression")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress CSV trajectories into .plc containers")
    c.add_argument("input", help="trajectory CSV or a directory of them")
    c.add_argument("-o", "--output", required=True, help=".plc path (or directory)")
    c.add_argument("--epsilon", type=float, help="max SED bound, meters")
    c.add_argument("--dedup", action="store_true",
                   help="drop points repeating the previous timestamp")
    _add_profile_args(c)

    d = sub.add_parser("decompress", help="reconstruct positions from a .plc container")
    d.add_argument("input", help=".plc container")
    d.add_argument("-o", "--output", required=True, help="output CSV")
    d.add_argument("--at", help="file of query timestamps, one per line, sorted")
    d.add_argument("--grid", action="store_true", help="emit the uniform series")
    _add_profile_args(d)

    e = sub.add_parser("eval", help="report compression ratio and SED metrics")
    e.add_argument("--originals", required=True, help="directory of original CSVs")
    e.add_argument("--compressed", help="directory of matching .plc files")
    e.add_argument("--at-original-timestamps", action="store_true",
                   help="also compute max/mean SED at the original timestamps")
    e.add_argument("--epsilon-list", help="sweep mode: compress at each eps and report trends")
    e.add_argument("--dedup", action="store_true")
    e.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_profile_args(e)

    s = sub.add_parser("synth", help="generate a synthetic CSV corpus")
    s.add_argument("-o", "--output", required=True, help="output directory")
    s.add_argument("--count", type=int, default=5)
    s.add_argument("--points", type=int, default=5000)
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--dt", type=float, default=1.0)
    s.add_argument("--kind", default="smooth",
                   help="smooth, jittery, nonuniform, or mixed")
    s.add_argument("--seed", type=int, default=0)

    return p


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, TruncationError, CorruptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (DataError, QueryRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError, PilotCError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
