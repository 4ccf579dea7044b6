import argparse
import ast
import dataclasses
import io
import json
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from pilotc import cli, synthetic_trajectory
from pilotc.cli import (
    EXIT_DATA,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_trajectory_csv,
    write_positions_csv,
)
from pilotc.errors import DataError
from pilotc.params import Profile


def write_corpus(directory, count=2, points=800, dim=2, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        traj = synthetic_trajectory(points, dim=dim, seed=rng, **kwargs)
        path = directory / f"traj_{i:02d}.csv"
        write_positions_csv(path, traj.times, traj.points)
        files.append(path)
    return files


def test_csv_round_trip(tmp_path):
    traj = synthetic_trajectory(50, dim=3, seed=1)
    path = tmp_path / "t.csv"
    write_positions_csv(path, traj.times, traj.points)
    assert path.read_text().splitlines()[0] == "t,x,y,z"
    back = read_trajectory_csv(path)
    np.testing.assert_allclose(back.times, traj.times, rtol=1e-10)
    np.testing.assert_allclose(back.points, traj.points, rtol=1e-10)


def test_csv_writer_matches_fixed_precision_text(tmp_path):
    edge = [0.0, -0.0, 1e16, -1e16, 1e-300, 5e-324, -5e-324, 1 / 3, 2.0**53,
            123456789.123456789, np.inf, -np.inf, np.nan]
    times = 0.1 * np.arange(len(edge))
    points = np.column_stack([edge, edge[::-1]])
    path = tmp_path / "edge.csv"
    write_positions_csv(path, times, points)
    rows = [f"{t:.12g}," + ",".join(f"{v:.12g}" for v in row)
            for t, row in zip(times, points)]
    assert path.read_text() == "\n".join(["t,x,y", *rows]) + "\n"


def test_csv_writer_spans_formatting_blocks(tmp_path):
    # rows are formatted in blocks; a table across block boundaries, and an
    # empty one, read as np.savetxt writes them
    rng = np.random.default_rng(4)
    for n_rows in (0, cli._CSV_BLOCK_ROWS, 2 * cli._CSV_BLOCK_ROWS + 3):
        times = np.cumsum(rng.uniform(0.0, 2.0, n_rows))
        points = rng.normal(0.0, 1e4, (n_rows, 4))
        path = tmp_path / "blocks.csv"
        write_positions_csv(path, times, points)
        expected = io.StringIO()
        np.savetxt(expected, np.column_stack([times, points]), fmt="%.12g",
                   delimiter=",", header="t,x,y,z,c3", comments="")
        assert path.read_text() == expected.getvalue()


def test_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,y\n0,1,2\n1,zzz,3\n")
    with pytest.raises(DataError, match="line 3"):
        read_trajectory_csv(path)
    # comment lines and tail comments are skipped, as loadtxt skips them
    path.write_text("t,x,y\n# a, b\n0,1,2 # one\n1,zzz,3\n")
    with pytest.raises(DataError, match="line 4: cannot parse '1,zzz,3'"):
        read_trajectory_csv(path)
    path.write_text("a,b\n")
    with pytest.raises(DataError, match="header"):
        read_trajectory_csv(path)


def test_csv_reader_matches_loadtxt_on_crlf_and_comments(tmp_path):
    # the data rows read as loadtxt reads them from text, to the bit
    rng = np.random.default_rng(8)
    table = np.column_stack([np.arange(500) + rng.random(500), rng.normal(0.0, 1e5, (500, 2))])
    rows = [",".join(repr(v) for v in row) for row in table.tolist()]
    data = np.loadtxt(io.StringIO("\n".join(rows)), delimiter=",", ndmin=2)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("\r\n".join(["t,x,y", *rows, ""]).encode())
    commented = tmp_path / "commented.csv"
    commented.write_text("\n".join(["t, x, y", "# recorded at 1 Hz", *rows[:250], "",
                                    "# second half", rows[250] + " # a tail comment",
                                    *rows[251:], "#"]))
    for path in (crlf, commented):
        traj = read_trajectory_csv(path)
        assert traj.times.tobytes() == data[:, 0].tobytes()
        assert traj.points.tobytes() == np.ascontiguousarray(data[:, 1:]).tobytes()


def test_header_only_csv_has_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("t,x,y\n", "t,x,y\r\n# nothing yet\n\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the DataError is the only report
            with pytest.raises(DataError, match="no data rows"):
                read_trajectory_csv(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def read_through_pipe(lines):
    """``read_trajectory_csv`` of the text ``lines`` written into a pipe."""
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "w") as fh:
            fh.write("\n".join(lines))

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read_trajectory_csv(f"/dev/fd/{r}")
    finally:
        writer.join()
        os.close(r)


def test_csv_reader_reads_a_pipe_once():
    # a pipe, as `pilotc compress /dev/stdin` reads one, cannot be opened
    # again at its start, so all its rows, well beyond one read buffer, come
    # through the one handle, and so does the line a parse error names
    table = np.column_stack([np.arange(5000), np.arange(5000) * 0.5, -np.arange(5000.0)])
    rows = [",".join(repr(v) for v in row) for row in table.tolist()]
    traj = read_through_pipe(["t,x,y", *rows])
    assert traj.times.tobytes() == table[:, 0].tobytes()
    assert traj.points.tobytes() == np.ascontiguousarray(table[:, 1:]).tobytes()
    with pytest.raises(DataError, match="line 4002: cannot parse '4000,zzz,0'"):
        read_through_pipe(["t,x,y", *rows[:4000], "4000,zzz,0", *rows[4001:]])


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("row, count", [("1,2", 2), ("1,2,3,4", 4)])
def test_csv_rows_of_another_field_count_name_the_line(row, count, source, tmp_path, capsys):
    # a row with fewer or more fields than the header, between good rows
    lines = ["t,x,y", "# a comment", "0,1,2", row, "2,3,4"]
    match = f"line 4: {count} fields, header has 3"
    with pytest.raises(DataError, match=match):
        if source == "file":
            path = tmp_path / "ragged.csv"
            path.write_text("\n".join(lines) + "\n")
            read_trajectory_csv(path)
        else:
            read_through_pipe(lines)
    if source == "file":  # and the command says so, with the data exit code
        out = tmp_path / "ragged.plc"
        assert main(["compress", str(path), "-o", str(out), "--epsilon", "5"]) == EXIT_DATA
        assert match in capsys.readouterr().err


def test_duplicate_timestamps_rejected_without_dedup(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t,x,y\n0,0,0\n1,1,1\n1,2,2\n2,3,3\n")
    out = tmp_path / "dup.plc"
    assert main(["compress", str(path), "-o", str(out), "--epsilon", "5"]) == EXIT_DATA
    assert main(["compress", str(path), "-o", str(out), "--epsilon", "5",
                 "--dedup"]) == EXIT_OK
    assert read_trajectory_csv(path, dedup=True).n_points == 3


def test_epsilon_validation():
    assert main(["compress", "x.csv", "-o", "y.plc", "--epsilon", "0"]) == EXIT_USAGE
    assert main(["compress", "x.csv", "-o", "y.plc"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_compress_decompress_eval_flow(tmp_path, capsys):
    originals = tmp_path / "orig"
    compressed = tmp_path / "plc"
    originals.mkdir()
    files = write_corpus(originals, count=2, points=1200)
    assert main(["compress", str(originals), "-o", str(compressed),
                 "--epsilon", "10"]) == EXIT_OK

    # --at original timestamps stays within eps
    ts_file = tmp_path / "ts.txt"
    traj = read_trajectory_csv(files[0])
    ts_file.write_text("\n".join(f"{t:.12g}" for t in traj.times))
    out_csv = tmp_path / "restored.csv"
    assert main(["decompress", str(compressed / "traj_00.plc"), "-o", str(out_csv),
                 "--at", str(ts_file)]) == EXIT_OK
    restored = read_trajectory_csv(out_csv)
    sed = np.linalg.norm(traj.points - restored.points, axis=1)
    assert sed.max() <= 10.0

    capsys.readouterr()
    assert main(["eval", "--originals", str(originals), "--compressed",
                 str(compressed), "--at-original-timestamps"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("name,")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert rows[-1]["name"] == "TOTAL"
    for row in rows:
        assert float(row["max_sed"]) <= 10.0
        assert float(row["compression_ratio"]) < 1.0


def test_decompress_grid_of_linear_trajectory(tmp_path):
    t = np.arange(300.0)
    pts = np.stack([2.0 * t, 100.0 - t], axis=1)
    src = tmp_path / "line.csv"
    write_positions_csv(src, t, pts)
    plc = tmp_path / "line.plc"
    assert main(["compress", str(src), "-o", str(plc), "--epsilon", "10"]) == EXIT_OK
    out = tmp_path / "grid.csv"
    assert main(["decompress", str(plc), "-o", str(out), "--grid"]) == EXIT_OK
    grid = read_trajectory_csv(out)
    # endpoints are quantized, so the output hugs the ideal line within eps_p
    for d, slope, inter in ((0, 2.0, 0.0), (1, -1.0, 100.0)):
        ideal = slope * grid.times + inter
        assert np.abs(grid.points[:, d] - ideal).max() <= 5.0
        fit = np.polyfit(grid.times, grid.points[:, d], 1)
        assert fit[0] == pytest.approx(slope, abs=0.05)


def test_decompress_out_of_range_timestamp(tmp_path, capsys):
    src = tmp_path / "s.csv"
    traj = synthetic_trajectory(500, dim=2, seed=3)
    write_positions_csv(src, traj.times, traj.points)
    plc = tmp_path / "s.plc"
    assert main(["compress", str(src), "-o", str(plc), "--epsilon", "10"]) == EXIT_OK
    ts = tmp_path / "bad_ts.txt"
    ts.write_text("999999.0\n")
    out = tmp_path / "o.csv"
    assert main(["decompress", str(plc), "-o", str(out), "--at", str(ts)]) == EXIT_DATA
    assert "999999" in capsys.readouterr().err


@pytest.mark.parametrize("text, code, report", [
    ("", EXIT_OK, "0 rows"),
    ("# none yet\n\n", EXIT_OK, "0 rows"),
    ("0.5\n# a comment\n\n1.5 # a tail comment\n", EXIT_OK, "2 rows"),
    ("0.5\n\nabc\n2.0\n", EXIT_DATA, "line 3: expected one number, got 'abc'"),
    ("0.5 1.5\n", EXIT_DATA, "line 1: expected one number, got '0.5 1.5'"),
    ("0.5\n1.5 2.5\n", EXIT_DATA, "line 2: expected one number, got '1.5 2.5'"),
], ids=["empty", "comments only", "comments and numbers", "not a number", "two numbers",
        "two numbers on a later line"])
def test_decompress_timestamps_file(tmp_path, capsys, text, code, report):
    # a file without numbers holds no timestamps, and a bad line is named;
    # numpy's own warnings never reach the user
    t = np.arange(300.0)
    src = tmp_path / "line.csv"
    write_positions_csv(src, t, np.stack([2.0 * t, 100.0 - t], axis=1))
    plc = tmp_path / "line.plc"
    assert main(["compress", str(src), "-o", str(plc), "--epsilon", "10"]) == EXIT_OK
    ts = tmp_path / "ts.txt"
    ts.write_text(text)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decompress", str(plc), "-o", str(out), "--at", str(ts)]) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert report in captured.out and captured.err == ""
        assert len(out.read_text().splitlines()) == 1 + int(report.split()[0])
    else:
        assert report in captured.err and not out.exists()


def test_truncated_container_is_format_error(tmp_path, capsys):
    src = tmp_path / "s.csv"
    traj = synthetic_trajectory(400, dim=2, seed=4)
    write_positions_csv(src, traj.times, traj.points)
    plc = tmp_path / "s.plc"
    assert main(["compress", str(src), "-o", str(plc), "--epsilon", "10"]) == EXIT_OK
    payload = plc.read_bytes()
    plc.write_bytes(payload[: len(payload) // 2])
    out = tmp_path / "o.csv"
    assert main(["decompress", str(plc), "-o", str(out), "--grid"]) == EXIT_FORMAT


@pytest.mark.parametrize("option, message", [("--eps-t", "eps_t"), ("--vmax", "v_max")])
def test_compress_rejects_nan_setting_as_usage(tmp_path, capsys, option, message):
    # NaN passes a "<= 0" check; a NaN eps_t used to reach an int cast, and a
    # NaN v_max to turn the speed split off without a word
    src = tmp_path / "s.csv"
    traj = synthetic_trajectory(300, dim=2, seed=5)
    write_positions_csv(src, traj.times, traj.points)
    out = tmp_path / "s.plc"
    assert main(["compress", str(src), "-o", str(out), "--epsilon", "10",
                 option, "nan"]) == EXIT_USAGE
    assert f"{message} must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("a", ["0", "nan"])
def test_decompress_rejects_bad_constant_as_usage(tmp_path, capsys, a):
    src = tmp_path / "s.csv"
    traj = synthetic_trajectory(300, dim=2, seed=5)
    write_positions_csv(src, traj.times, traj.points)
    plc = tmp_path / "s.plc"
    assert main(["compress", str(src), "-o", str(plc), "--epsilon", "10"]) == EXIT_OK
    out = tmp_path / "o.csv"
    assert main(["decompress", str(plc), "-o", str(out), "--grid", "--a", a]) == EXIT_USAGE
    assert "constants a and d" in capsys.readouterr().err
    assert not out.exists()


def test_decompress_takes_no_encoding_settings(tmp_path, capsys):
    # the container header fixes v_max, eps_t, the chunk length and eps_p,
    # so decompress offers only the profile and the constants a-d
    src = tmp_path / "s.csv"
    traj = synthetic_trajectory(300, dim=2, seed=5)
    write_positions_csv(src, traj.times, traj.points)
    plc = tmp_path / "s.plc"
    assert main(["compress", str(src), "-o", str(plc), "--epsilon", "10"]) == EXIT_OK
    out = tmp_path / "o.csv"
    for option in ("--eps-t", "--vmax", "--chunk-bits", "--eps-p-factor"):
        args = ["decompress", str(plc), "-o", str(out), "--grid", option, "0.5"]
        assert main(args) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()
    assert main(["decompress", str(plc), "-o", str(out), "--grid",
                 "--profile", "geolife", "--b", "0.5"]) == EXIT_OK


@pytest.mark.parametrize("option, value, message", [
    ("--eps-t", "nan", "eps_t must be positive"), ("--chunk-bits", "33", "chunk_bits"),
])
def test_eval_rejects_bad_setting_as_usage(tmp_path, capsys, option, value, message):
    # the profile checks its settings, so eval rejects a bad one even in
    # --compressed mode, where the containers' headers fix them
    write_corpus(tmp_path, count=1, points=300)
    assert main(["compress", str(tmp_path), "-o", str(tmp_path), "--epsilon", "10"]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--originals", str(tmp_path), "--compressed", str(tmp_path),
                 "--at-original-timestamps", option, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("rows", ["0,1e300,0\n1,1e300,0\n2,1e300,0",
                                  "0,0,0\n1,1,0\n1e300,2,0",
                                  "0,1e300,0\n1,-1e300,0\n2,1e300,0\n3,-1e300,0"],
                         ids=["x", "t", "alternating"])
def test_compress_out_of_range_input_is_data_error(tmp_path, capsys, rows):
    # x = 1e300 at eps = 1, or t = 1e300 at eps_t = 1, has no exact index;
    # jumps of 2e300 overflow the distance, which splits without a warning
    src = tmp_path / "big.csv"
    src.write_text("t,x,y\n" + rows + "\n")
    out = tmp_path / "big.plc"
    assert main(["compress", str(src), "-o", str(out), "--epsilon", "1"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: coordinates or timestamps too large")
    assert not out.exists()


def test_block_size_beyond_int64_is_usage_error(tmp_path, capsys):
    # b_s = round(0.5 * eps + 25) = 5e189 at eps = 1e190
    src = tmp_path / "far.csv"
    src.write_text("t,x,y\n0,1e200,0\n1,1e200,0\n2,1e200,0\n3,1e200,0\n")
    out = tmp_path / "far.plc"
    assert main(["compress", str(src), "-o", str(out), "--epsilon", "1e190"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "b_s" in err and "eps=1e+190" in err
    assert not out.exists()
    assert main(["eval", "--originals", str(tmp_path), "--epsilon-list", "10,1e190"]) == EXIT_USAGE


def test_decompress_requires_exactly_one_mode(tmp_path):
    assert main(["decompress", "x.plc", "-o", "y.csv"]) == EXIT_USAGE
    assert main(["decompress", "x.plc", "-o", "y.csv", "--at", "t.txt", "--grid"]) == EXIT_USAGE


def test_eval_requires_exactly_one_mode(tmp_path, capsys):
    # both modes at once would leave one of them unused
    write_corpus(tmp_path, count=1, points=300)
    capsys.readouterr()
    assert main(["eval", "--originals", str(tmp_path), "--compressed", str(tmp_path / "none"),
                 "--epsilon-list", "10"]) == EXIT_USAGE
    assert main(["eval", "--originals", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_synth_command(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "-o", str(out), "--count", "3", "--points", "200",
                 "--seed", "7", "--kind", "mixed"]) == EXIT_OK
    files = sorted(out.glob("*.csv"))
    assert len(files) == 3
    rec = read_trajectory_csv(files[0])
    assert rec.n_points == 200


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_synthetic_trajectory_rejects_bad_dt(dt):
    # timestamps k dt must increase and stay finite
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        synthetic_trajectory(5, dt=dt)


@pytest.mark.parametrize("dt", ["0", "-1", "nan"])
def test_synth_rejects_bad_dt(tmp_path, capsys, dt):
    out = tmp_path / "corpus"
    assert main(["synth", "-o", str(out), "--count", "1", "--points", "5",
                 f"--dt={dt}"]) == EXIT_DATA
    assert "dt must be positive and finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_eval_sweep_rejects_at_original_timestamps(tmp_path, capsys):
    # the sweep always measures SED, so the flag could only be ignored
    write_corpus(tmp_path, count=1, points=300)
    capsys.readouterr()
    assert main(["eval", "--originals", str(tmp_path), "--epsilon-list", "10",
                 "--at-original-timestamps"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--at-original-timestamps" in captured.err and captured.out == ""


def test_eval_sweep_mode(tmp_path, capsys):
    originals = tmp_path / "orig"
    originals.mkdir()
    write_corpus(originals, count=1, points=1500, seed=5)
    capsys.readouterr()
    assert main(["eval", "--originals", str(originals),
                 "--epsilon-list", "10,30,100"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio_monotone_nonincreasing=True" in out
    lines = [ln for ln in out.splitlines() if ln.startswith("sweep")]
    assert len(lines) == 3


def test_eval_sweep_is_in_ascending_eps(tmp_path, capsys):
    # the trend flags read the rows in order, so they must come in ascending
    # eps whatever the order given
    write_corpus(tmp_path, count=1, points=1500, seed=5)
    capsys.readouterr()
    assert main(["eval", "--originals", str(tmp_path), "--epsilon-list", "100,30,10",
                 "--format", "jsonl"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio_monotone_nonincreasing=True" in out
    rows = [json.loads(ln) for ln in out.splitlines() if not ln.startswith("#")]
    assert [r["eps"] for r in rows] == [10.0, 30.0, 100.0]


@pytest.mark.parametrize("values", [",", "10,abc", "10,-5", "nan"])
def test_eval_rejects_bad_epsilon_list(tmp_path, capsys, values):
    write_corpus(tmp_path, count=1, points=300)
    assert main(["eval", "--originals", str(tmp_path), "--epsilon-list", values]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def eval_rows(capsys, *args):
    """The rows ``pilotc eval`` prints in csv and in jsonl, checked to hold
    the same values, as dicts of the jsonl values."""
    header, *csv_rows = _eval_lines(capsys, *args, "--format", "csv")
    records = [json.loads(line) for line in _eval_lines(capsys, *args, "--format", "jsonl")]
    columns = header.split(",")
    assert list(records[0]) == columns
    assert len(records) == len(csv_rows)
    for line, record in zip(csv_rows, records):
        for cell, value in zip(line.split(","), record.values(), strict=True):
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == pytest.approx(value, rel=1e-8, abs=0.0)
    return records


def _eval_lines(capsys, *args):
    capsys.readouterr()
    assert main(["eval", *args]) == EXIT_OK
    return [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]


def test_eval_modes_and_formats_agree(tmp_path, capsys):
    originals = tmp_path / "orig"
    compressed = tmp_path / "plc"
    originals.mkdir()
    write_corpus(originals, count=3, points=1000, seed=9)
    assert main(["compress", str(originals), "-o", str(compressed),
                 "--epsilon", "50"]) == EXIT_OK
    per_file = eval_rows(capsys, "--originals", str(originals), "--compressed", str(compressed),
                         "--at-original-timestamps")
    sizes_only = eval_rows(capsys, "--originals", str(originals), "--compressed",
                           str(compressed))
    sweep = eval_rows(capsys, "--originals", str(originals), "--epsilon-list", "20,50")

    assert [r["name"] for r in per_file] == ["traj_00", "traj_01", "traj_02", "TOTAL"]
    total = per_file[-1]
    assert total["eps"] is None and total["max_sed"] <= 50.0
    assert total["n_points"] == 3000
    assert total["compressed_bytes"] == sum(p.stat().st_size for p in compressed.iterdir())
    # without --at-original-timestamps only the SED columns go
    for with_sed, without in zip(per_file, sizes_only):
        assert without["max_sed"] is None and without["mean_sed"] is None
        assert without == {**with_sed, "max_sed": None, "mean_sed": None}
    # the sweep measures the same container bytes as compress, then eval
    assert [(r["name"], r["eps"]) for r in sweep] == [("sweep", 20.0), ("sweep", 50.0)]
    assert {**sweep[1], "name": "TOTAL", "eps": None} == total


def test_eval_empty_directory(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["eval", "--originals", str(empty), "--compressed",
                 str(empty)]) == EXIT_DATA


def test_readme_cli_example(tmp_path, monkeypatch):
    # the README's CLI sequence, at a small size
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "-o", "corpus/", "--count", "2", "--points", "3000",
                 "--kind", "mixed", "--seed", "7"]) == EXIT_OK
    assert main(["compress", "corpus/", "-o", "compressed/", "--epsilon", "50",
                 "--profile", "geolife", "--eps-t", "0.01"]) == EXIT_OK
    assert main(["decompress", "compressed/mixed_000.plc", "-o", "grid.csv",
                 "--grid"]) == EXIT_OK
    # tail -n +2 corpus/mixed_000.csv | cut -d, -f1 > timestamps.txt
    lines = (tmp_path / "corpus" / "mixed_000.csv").read_text().splitlines()[1:]
    (tmp_path / "timestamps.txt").write_text(
        "".join(line.split(",")[0] + "\n" for line in lines))
    assert main(["decompress", "compressed/mixed_000.plc", "-o", "at.csv",
                 "--at", "timestamps.txt"]) == EXIT_OK
    assert main(["eval", "--originals", "corpus/", "--compressed", "compressed/",
                 "--at-original-timestamps"]) == EXIT_OK
    assert main(["eval", "--originals", "corpus/", "--epsilon-list", "10,20,50,100",
                 "--eps-t", "0.01"]) == EXIT_OK


def test_only_the_cli_prints():
    """Library code reports through return values and exceptions, not print."""
    calls = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_cli_surface():
    """Every subcommand's options and their dests; a change to the command
    line is an edit to this test."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: {opt: a.dest for a in sub._actions for opt in a.option_strings}
               for name, sub in commands.choices.items()}
    help_ = {"-h": "help", "--help": "help"}
    constants = {"--profile": "profile", "--a": "a", "--b": "b", "--c": "c", "--d": "d"}
    settings = {**constants, "--vmax": "v_max", "--eps-t": "eps_t",
                "--chunk-bits": "chunk_bits", "--eps-p-factor": "eps_p_factor"}
    assert surface == {
        "compress": {**help_, "-o": "output", "--output": "output", "--epsilon": "epsilon",
                     "--dedup": "dedup", **settings},
        "decompress": {**help_, "-o": "output", "--output": "output", "--at": "at",
                       "--grid": "grid", **constants},
        "eval": {**help_, "--originals": "originals", "--compressed": "compressed",
                 "--at-original-timestamps": "at_original_timestamps",
                 "--epsilon-list": "epsilon_list", "--dedup": "dedup", "--format": "format",
                 **settings},
        "synth": {**help_, "-o": "output", "--output": "output", "--count": "count",
                  "--points": "points", "--dim": "dim", "--dt": "dt", "--kind": "kind",
                  "--seed": "seed"},
    }
    # each Profile setting is set by exactly one option where settings are
    # taken, and decompress takes only the profile and its constants
    names = {f.name for f in dataclasses.fields(Profile)} - {"name"}
    for command in ("compress", "eval"):
        dests = [a.dest for a in commands.choices[command]._actions]
        assert sorted(d for d in dests if d in names) == sorted(names)
    decompress = {a.dest for a in commands.choices["decompress"]._actions}
    assert decompress & (names | {"profile"}) == {"profile", "a", "b", "c", "d"}
