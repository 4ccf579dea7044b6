import io

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
            123456789.123456789]
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
    path.write_text("a,b\n")
    with pytest.raises(DataError, match="header"):
        read_trajectory_csv(path)


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


@pytest.mark.parametrize("rows", ["0,1e300,0\n1,1e300,0\n2,1e300,0",
                                  "0,0,0\n1,1,0\n1e300,2,0"], ids=["x", "t"])
def test_compress_out_of_range_input_is_data_error(tmp_path, capsys, rows):
    # x = 1e300 at eps = 1, or t = 1e300 at eps_t = 1, has no exact index
    src = tmp_path / "big.csv"
    src.write_text("t,x,y\n" + rows + "\n")
    out = tmp_path / "big.plc"
    assert main(["compress", str(src), "-o", str(out), "--epsilon", "1"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: coordinates or timestamps too large")
    assert not out.exists()


def test_decompress_requires_exactly_one_mode(tmp_path):
    assert main(["decompress", "x.plc", "-o", "y.csv"]) == EXIT_USAGE


def test_synth_command(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "-o", str(out), "--count", "3", "--points", "200",
                 "--seed", "7", "--kind", "mixed"]) == EXIT_OK
    files = sorted(out.glob("*.csv"))
    assert len(files) == 3
    rec = read_trajectory_csv(files[0])
    assert rec.n_points == 200


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
