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
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import container, metrics
from .errors import (
    CorruptionError,
    DataError,
    FormatError,
    PilotCError,
    TruncationError,
)
from .model import TrajectoryRecord
from .params import DEFAULT_PROFILE, PROFILES, CodecParams, Profile
from .pipeline import compress
from .reconstruct import Reconstructor
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
    with path.open("rb") as fh:
        # one UTF-8 byte order mark, as spreadsheets write, may open the file
        header = _decoded(path, fh.readline()).removeprefix("\ufeff")
        header = header.strip().lower().replace(" ", "")
        columns = header.split(",")
        if len(columns) < 2 or columns[0] != "t":
            raise DataError(f"{path}: line 1: expected header 't,x,y[,z]', got '{header}'")
        # loadtxt parses a path faster than lines, but only a regular file
        # can be opened again at its start; a pipe's rows are read here, once
        rows = None if path.is_file() else _decoded(path, fh.read(), 2).split("\n")
    try:
        with warnings.catch_warnings():  # a file without rows is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path if rows is None else rows, delimiter=",", ndmin=2,
                              skiprows=1 if rows is None else 0, encoding="utf-8")
    except ValueError:  # a decode error too
        if rows is None:
            rows = _decoded(path, path.read_bytes()).split("\n")[1:]
        _raise_with_line_number(path, rows, len(columns))
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


def _decoded(path: Path, raw: bytes, first_line: int = 1) -> str:
    """``raw``, the bytes of ``path`` from line ``first_line`` on, as UTF-8
    text with universal newlines, as text mode reads it; a byte that is not
    UTF-8, even in a comment, is a data error that names its line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + raw.count(b"\n", 0, exc.start)
        raise DataError(f"{path}: line {line}: not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _raise_with_line_number(path: Path, rows, n_fields: int):
    """Name the first of ``rows``, the lines after the header, that does not
    parse as numbers or does not hold the header's ``n_fields`` fields."""
    for lineno, line in enumerate(rows, start=2):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            n = len([float(v) for v in text.split(",")])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: cannot parse '{line.strip()}'") from None
        if n != n_fields:
            raise DataError(f"{path}: line {lineno}: {n} fields, header has {n_fields}")
    raise DataError(f"{path}: malformed CSV")


_CSV_BLOCK_ROWS = 1 << 14  # rows per formatting pass, to bound the text held at once


def write_positions_csv(path, times, points) -> None:
    """Atomic CSV write of a 't,x,y[,z]' table at 12 significant digits."""
    points = np.asarray(points)
    header = "t," + ",".join("xyz"[d] if d < 3 else f"c{d}" for d in range(points.shape[1]))
    table = np.column_stack([times, points])
    row = b",".join([b"%.12g"] * table.shape[1]) + b"\n"

    def text():
        yield (header + "\n").encode()
        # one bytes % operation (str %'s float formatter) formats a block of rows
        for i in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[i:i + _CSV_BLOCK_ROWS]
            yield row * len(block) % tuple(block.ravel().tolist())

    _write_atomic(path, text())


def _write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks`` to a temp file in the target
    directory, then rename it over ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_constant_args(p: argparse.ArgumentParser) -> None:
    """The dataset constants, which every command needs: a container does
    not store them."""
    p.add_argument("--profile", choices=sorted(PROFILES), default=DEFAULT_PROFILE.name,
                   help="named dataset constants (default %(default)s)")
    p.add_argument("--a", type=float, help="override constant a (eps_f = eps/a)")
    p.add_argument("--b", type=float, help="override constant b (block size slope)")
    p.add_argument("--c", type=float, help="override constant c (block size offset)")
    p.add_argument("--d", type=float, help="override constant d (retention scale)")


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    """The constants plus the encoding settings, which a container header
    fixes, so only the commands that encode take them."""
    _add_constant_args(p)
    p.add_argument("--vmax", dest="v_max", type=float, metavar="VMAX",
                   help="segmentation speed threshold, m/s")
    p.add_argument("--eps-t", type=float, help="time precision, seconds")
    p.add_argument("--chunk-bits", type=int, help="varint chunk length (default 2)")
    p.add_argument("--eps-p-factor", type=float, help="point precision as a fraction of eps")


def _epsilon_list(text: str) -> list[float]:
    """The sweep's eps values, ascending: its trend flags read them in order."""
    try:
        values = sorted(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got '{text}'")
    return values


def _profile_from_args(args) -> Profile:
    # each setting's option has the Profile field's name as its dest
    given = {f.name: v for f in fields(Profile) if (v := getattr(args, f.name, None)) is not None}
    try:
        return replace(PROFILES[args.profile], **given)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc


def _params(profile: Profile, eps: float) -> CodecParams:
    try:
        return profile.params(eps)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc


class _Usage(Exception):
    pass


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_compress(args) -> int:
    profile = _profile_from_args(args)
    params = _params(profile, args.epsilon)
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
        _write_atomic(outp, [payload])
        print(f"{inp.name}: {traj.n_points} points -> {len(payload)} bytes, "
              f"{len(model.corrections)} corrections, {len(model.outliers)} outliers")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    profile = _profile_from_args(args)
    data = Path(args.input).read_bytes()
    model = container.parse(data, profile)
    if args.grid:
        grids = list(Reconstructor(model, profile).segment_grids())
        times = np.concatenate([t for t, _ in grids] or [np.zeros(0)])
        points = np.concatenate([v for _, v in grids] or [np.zeros((0, model.dim))])
    else:
        times = _read_timestamps(Path(args.at))
        points = Reconstructor(model, profile).query(times)
    write_positions_csv(args.output, times, points)
    print(f"{args.output}: {len(times)} rows")
    return EXIT_OK


def _read_timestamps(path: Path) -> np.ndarray:
    """Read one timestamp per line; blank lines and '#' comments are skipped,
    so a file of neither holds no timestamps."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, ndmin=2)
        if values.shape[1] == 1:
            return values.ravel()
    except ValueError:
        pass
    for lineno, line in enumerate(_decoded(path, path.read_bytes()).splitlines(), start=1):
        fields = line.split("#", 1)[0].split()
        try:
            ok = len([float(v) for v in fields]) <= 1
        except ValueError:
            ok = False
        if not ok:
            raise DataError(f"{path}: line {lineno}: expected one number, got '{line.strip()}'")
    raise DataError(f"{path}: timestamps file must hold one number per line")


def _cmd_eval(args) -> int:
    if args.epsilon_list and args.at_original_timestamps:
        raise _Usage("--at-original-timestamps applies to --compressed, not to the sweep")
    originals_dir = Path(args.originals)
    csv_files = sorted(originals_dir.glob("*.csv"))
    if not csv_files:
        raise DataError(f"{originals_dir}: no .csv files found")
    profile = _profile_from_args(args)

    if args.epsilon_list:
        sweep = [_params(profile, eps) for eps in args.epsilon_list]
        trajs = [(f.stem, read_trajectory_csv(f, dedup=args.dedup)) for f in csv_files]
        rows = []
        for params in sweep:
            measured = [_measure(name, traj, container.serialize(compress(traj, params), profile),
                                 profile, sed=True)
                        for name, traj in trajs]
            rows.append(_aggregate("sweep", measured, params.eps))
        monotone = all(b.compression_ratio <= a.compression_ratio + 1e-12
                       for a, b in zip(rows, rows[1:]))
        r2 = _linear_fit_r2(args.epsilon_list, [r.mean_sed for r in rows])
        _emit(rows, args.format)
        print(f"# ratio_monotone_nonincreasing={monotone} mean_sed_linear_r2={r2:.4f}")
        return EXIT_OK

    compressed_dir = Path(args.compressed)
    rows = []
    for f in csv_files:
        plc = compressed_dir / (f.stem + ".plc")
        if not plc.exists():
            raise DataError(f"{plc}: missing compressed counterpart of {f.name}")
        rows.append(_measure(f.stem, read_trajectory_csv(f, dedup=args.dedup),
                             plc.read_bytes(), profile, sed=args.at_original_timestamps))
    _emit(rows + [_aggregate("TOTAL", rows)], args.format)
    return EXIT_OK


def _measure(name: str, traj: TrajectoryRecord, payload: bytes, profile: Profile,
             sed: bool) -> metrics.EvalReport:
    """One trajectory against its container bytes; SED only when ``sed``."""
    model = container.parse(payload, profile)
    raw = metrics.raw_size_bytes(traj.n_points, traj.dim)
    report = metrics.EvalReport(
        name=name, n_points=traj.n_points, dim=traj.dim, raw_bytes=raw,
        compressed_bytes=len(payload), compression_ratio=len(payload) / raw,
        corrected_fraction=len(model.corrections) / traj.n_points, eps=model.eps,
    )
    if sed:
        approx = Reconstructor(model, profile).query(traj.times)
        report.max_sed = metrics.max_sed(traj.points, approx)
        report.mean_sed = metrics.mean_sed(traj.points, approx)
    return report


def _aggregate(name: str, rows: list[metrics.EvalReport], eps=None) -> metrics.EvalReport:
    """One row for many: sizes add up, max SED is the largest, and mean SED
    and corrected fraction are weighted by point count."""
    n = sum(r.n_points for r in rows)
    raw = sum(r.raw_bytes for r in rows)
    compressed = sum(r.compressed_bytes for r in rows)

    def weighted(field):
        return sum(getattr(r, field) * r.n_points for r in rows) / n

    report = metrics.EvalReport(
        name=name, n_points=n, dim=rows[0].dim, raw_bytes=raw,
        compressed_bytes=compressed, compression_ratio=compressed / raw,
        corrected_fraction=weighted("corrected_fraction"), eps=eps,
    )
    if rows[0].max_sed is not None:
        report.max_sed = max(r.max_sed for r in rows)
        report.mean_sed = weighted("mean_sed")
    return report


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


# synthetic_trajectory options of each ``synth --kind``
_KINDS = {
    "smooth": dict(),
    "jittery": dict(jitter=2.0),
    "nonuniform": dict(gap_jitter=0.6, big_gap_rate=0.002),
    "mixed": dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.002, teleport_rate=0.0005),
}


def _cmd_synth(args) -> int:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        traj = synthetic_trajectory(
            args.points, dim=args.dim, dt=args.dt, seed=rng, **_KINDS[args.kind])
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
    c.add_argument("--epsilon", type=float, required=True, help="max SED bound, meters")
    c.add_argument("--dedup", action="store_true",
                   help="drop points repeating the previous timestamp")
    _add_profile_args(c)

    d = sub.add_parser("decompress", help="reconstruct positions from a .plc container")
    d.add_argument("input", help=".plc container")
    d.add_argument("-o", "--output", required=True, help="output CSV")
    mode = d.add_mutually_exclusive_group(required=True)
    mode.add_argument("--at", help="file of query timestamps, one per line")
    mode.add_argument("--grid", action="store_true", help="emit the uniform series")
    _add_constant_args(d)

    e = sub.add_parser("eval", help="report compression ratio and SED metrics")
    e.add_argument("--originals", required=True, help="directory of original CSVs")
    mode = e.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compressed", help="directory of matching .plc files")
    mode.add_argument("--epsilon-list", type=_epsilon_list,
                      help="sweep mode: compress at each eps and report trends")
    e.add_argument("--at-original-timestamps", action="store_true",
                   help="with --compressed: also compute max/mean SED at the original timestamps")
    e.add_argument("--dedup", action="store_true")
    e.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_profile_args(e)

    s = sub.add_parser("synth", help="generate a synthetic CSV corpus")
    s.add_argument("-o", "--output", required=True, help="output directory")
    s.add_argument("--count", type=int, default=5)
    s.add_argument("--points", type=int, default=5000)
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--dt", type=float, default=1.0)
    s.add_argument("--kind", choices=_KINDS, default="smooth")
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
    except (OSError, ValueError, PilotCError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
