import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pilotc import (
    PROFILES,
    CodecParams,
    Reconstructor,
    compress,
    parse,
    serialize,
    synthetic_trajectory,
)
from pilotc import reconstruct
from pilotc.codec import dequantize_array, time_index_array
from pilotc.container import segment_end_index
from pilotc.errors import QueryRangeError
from pilotc.model import EncodedBlock, SubTrajectorySegment
from pilotc.params import Layout

from codec_reference import query_ref, query_tolerance_ref, spans
from model_gen import hand_built, random_model

GEO = PROFILES["geolife"]


@pytest.fixture(scope="module")
def compressed(request):
    traj = synthetic_trajectory(2500, dim=2, seed=21)
    params = GEO.params(10.0)
    model = compress(traj, params)
    return traj, params, model


def test_linear_trajectory_reconstructs_linearly(linear_2d):
    params = GEO.params(10.0)
    model = compress(linear_2d, params)
    (t, values), = Reconstructor(model, params).segment_grids()
    # anchors are quantized, so samples hug the true line within eps_p per dim
    for d, (slope, inter) in enumerate(((3.0, 10.0), (-1.5, 7.0))):
        assert np.abs(values[:, d] - (slope * t + inter)).max() <= params.eps_p
    approx = Reconstructor(model, params).query(linear_2d.times)
    err = np.linalg.norm(linear_2d.points - approx, axis=1)
    assert err.max() <= params.eps_p * np.sqrt(2.0)


def test_query_at_grid_points_returns_samples(compressed):
    # a grid time that is also a corrected original timestamp returns its
    # sample plus the correction
    _, params, model = compressed
    rec = Reconstructor(model, params)
    times, values = next(rec.segment_grids())
    lay = params.layout(model.dim)
    expected = values[:50].copy()
    t_index = time_index_array(times[:50], model.eps_t)
    corrected = np.isin(t_index, model.corrections.t_index)
    rows = np.searchsorted(model.corrections.t_index, t_index[corrected])
    expected[corrected] += dequantize_array(model.corrections.values[rows], lay.eps_d)
    np.testing.assert_allclose(rec.query(times[:50]), expected, atol=1e-9)


def test_query_midway_is_arithmetic_mean(compressed):
    _, params, model = compressed
    rec = Reconstructor(model, params)
    times, values = next(rec.segment_grids())
    mid = times[0] + model.dt * (np.arange(20) + 0.5)
    expected = 0.5 * (values[:20] + values[1:21])
    np.testing.assert_allclose(rec.query(mid), expected, atol=1e-9)


def test_query_is_permutation_invariant(compressed):
    traj, params, model = compressed
    rec = Reconstructor(model, params)
    ts = traj.times[::7]
    perm = np.random.default_rng(0).permutation(len(ts))
    direct = rec.query(ts)
    shuffled = rec.query(ts[perm])
    np.testing.assert_array_equal(shuffled, direct[perm])


def test_query_out_of_range_identifies_timestamp(compressed):
    traj, params, model = compressed
    rec = Reconstructor(model, params)
    bad = float(traj.times[-1] + 1e6)
    with pytest.raises(QueryRangeError) as exc:
        rec.query([traj.times[0], bad])
    assert exc.value.timestamp == bad
    with pytest.raises(QueryRangeError):
        rec.query([traj.times[0] - 1e6])
    # a NaN fails as out of range before numpy would warn about its cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QueryRangeError) as exc:
            rec.query([traj.times[0], float("nan")])
    assert math.isnan(exc.value.timestamp)


def test_decompress_matches_pipeline_reconstruction(compressed):
    traj, params, model = compressed
    back = parse(serialize(model, params), params)
    a = list(Reconstructor(model, params).segment_grids())
    b = list(Reconstructor(back, params).segment_grids())
    assert len(a) == len(b) == len(model.segments)
    for (ta, va), (tb, vb) in zip(a, b):
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(ta, tb)


def test_zero_coefficients_give_piecewise_linear_series(linear_2d):
    params = GEO.params(10.0)
    model = compress(linear_2d, params)
    assert not model.segments.store.c_f.any()
    (_, values), = Reconstructor(model, params).segment_grids()
    second_diff = np.diff(values, n=2, axis=0)
    # piecewise linear through block endpoints: curvature only at block joints
    b_s = params.layout(2).b_s
    interior = np.ones(second_diff.shape[0], dtype=bool)
    interior[b_s - 1 :: b_s] = False
    assert np.abs(second_diff[interior]).max() < 1e-9


def test_outlier_queries_return_stored_positions():
    t = np.array([0.0, 10.0])
    p = np.array([[0.0, 0.0], [5000.0, 0.0]])
    from pilotc import TrajectoryRecord
    params = GEO.params(10.0)
    model = compress(TrajectoryRecord(t, p), params)
    assert len(model.outliers) == 2
    rec = Reconstructor(model, params)
    got = rec.query(t)
    assert np.linalg.norm(got - p, axis=1).max() <= params.eps


def test_corrected_query_applies_residual():
    traj = synthetic_trajectory(3000, dim=2, seed=22)
    params = CodecParams(eps=2.0, a=0.6, b=GEO.b, c=GEO.c, d=2**-6)
    model = compress(traj, params)
    assert model.corrections
    rec = Reconstructor(model, params)
    corrected_t = traj.times[np.isin(
        np.rint(traj.times / params.eps_t).astype(int),
        model.corrections.t_index)]
    assert corrected_t.size == len(model.corrections)
    sed = np.linalg.norm(
        traj.points[np.isin(traj.times, corrected_t)] - rec.query(corrected_t), axis=1)
    assert sed.max() <= params.eps_p + 1e-9


def test_scalar_and_single_queries(compressed):
    traj, params, model = compressed
    rec = Reconstructor(model, params)
    one = rec.query([float(traj.times[5])])[0]
    assert one.shape == (2,)
    np.testing.assert_array_equal(one, rec.query(traj.times[5:6])[0])


@pytest.mark.parametrize("shape", [(4, 1), (1, 4), (2, 2, 1)])
def test_query_of_more_than_one_dimension_names_the_shape(compressed, shape):
    # a scalar and a 1-D sequence are queries; a column or a row of a 2-D
    # array is not, and the error names its shape
    traj, params, model = compressed
    rec = Reconstructor(model, params)
    ts = traj.times[:4]
    with pytest.raises(ValueError, match=rf"shape \({', '.join(map(str, shape))},?\)"):
        rec.query(ts.reshape(shape))
    assert rec.query(ts).tobytes() == rec.query(list(ts)).tobytes()
    assert rec.query(ts[0]).tobytes() == rec.query(ts[:1]).tobytes()


def test_end_delta_chain_beyond_int64_keeps_its_sign():
    # two end deltas of 2**62 sum past the int64 range; the chain must not wrap
    blocks = ((EncodedBlock((), 2**62), EncodedBlock((), 2**62)),)
    model = hand_built(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=4,
                       segments=(SubTrajectorySegment(0, (0,), 61, blocks),))
    (_, values), = Reconstructor(parse(serialize(model, GEO), GEO), GEO).segment_grids()
    assert values[-1, 0] == pytest.approx(2.0**63 * 2.0 * 5.0)


def test_entries_apply_at_their_exact_time_index_only():
    # one straight segment over t = 0..10 s, an outlier inside its span at
    # time index 4, and corrections at 2, at the outlier's 4, and at 8
    blocks = ((EncodedBlock((), 10),), (EncodedBlock((), -4),))
    header = dict(dim=2, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2)
    segments = (SubTrajectorySegment(0, (0, 0), 11, blocks),)
    bare = hand_built(**header, segments=segments)
    outliers = ((4, (7, -3)),)
    corrections = ((2, (1, 2)), (4, (5, 5)), (8, (-3, 1)))
    lay = Layout.derive(10.0, 5.0, 2, GEO)
    outlier_pos = np.array([7, -3]) * (2.0 * lay.eps_out)
    residual = {t: np.array(v) * (2.0 * lay.eps_d) for t, v in corrections}

    ts = np.array([0.0, 1.4, 2.0, 2.4, 2.6, 3.0, 4.0, 4.3, 7.6, 8.0, 8.4, 9.0, 10.0])
    q = np.rint(ts).astype(int)  # no query sits on a tie
    plain = Reconstructor(bare, GEO).query(ts)
    np.testing.assert_allclose(plain, np.outer(ts, [2.0, -0.8]) * lay.eps_d)
    for with_outliers, with_corrections in ((True, True), (True, False), (False, True)):
        model = hand_built(**header, segments=segments,
                           outliers=outliers if with_outliers else (),
                           corrections=corrections if with_corrections else ())
        want = plain.copy()
        for i, qi in enumerate(q):
            if with_outliers and qi == 4:
                want[i] = outlier_pos  # over the segment and the correction at 4
            elif with_corrections and qi in residual:
                want[i] += residual[qi]
        got = Reconstructor(model, GEO).query(ts)
        np.testing.assert_array_equal(got, want)
        # before the first entry index and after the last, no entry matches
        outside = (q < 2) | (q > 8)
        np.testing.assert_array_equal(got[outside], plain[outside])


def probe_times(model, rng):
    """Timestamps that test every query rule: at and one float step past
    each segment's reach, on its span ends and grid samples, between them,
    and at, near and just past every entry's time index."""
    series = spans(model, GEO)
    tol = query_tolerance_ref(series, model.dt, model.eps_t)
    ts = []
    for s in series:
        end = s.t0 + (s.n_samples - 1) * model.dt
        for edge, outward in ((s.t0 - tol, -np.inf), (end + tol, np.inf)):
            ts += [edge, np.nextafter(edge, outward), np.nextafter(edge, -outward)]
        grid = s.t0 + model.dt * np.arange(min(s.n_samples, 5))
        ts += [s.t0, end, *grid, *rng.uniform(s.t0, end, 20)]
    for t_index in (*model.outliers.t_index.tolist(), *model.corrections.t_index.tolist()):
        t = t_index * model.eps_t
        ts += [t, t + 0.3 * model.eps_t, t - 0.3 * model.eps_t, t + 0.6 * model.eps_t]
    return np.array(ts)


def assert_query_matches_reference(model, ts, rng):
    """Bitwise equal positions on the timestamps that resolve, in given,
    sorted and shuffled order with repeats, and in one query of two chunks,
    the first sorted and the second not; and the same QueryRangeError on
    orders of them all."""
    rec = Reconstructor(model, GEO)
    resolves = []
    for t in ts:
        try:
            query_ref(model, GEO, [t])
            resolves.append(True)
        except QueryRangeError:
            resolves.append(False)
    good = ts[resolves]
    repeated = np.concatenate([good, good[::3]])
    for order in (good, np.sort(repeated), rng.permutation(repeated)):
        want = query_ref(model, GEO, order)
        assert rec.query(order).tobytes() == want.tobytes()
    if len(good) > 2:
        two_chunks = np.concatenate([np.sort(good), rng.permutation(good)])
        assert (np.diff(two_chunks[len(good):]) < 0).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "_QUERY_CHUNK", len(good))
            got = rec.query(two_chunks)
        assert got.tobytes() == query_ref(model, GEO, two_chunks).tobytes()
    if not all(resolves):
        for order in (ts, np.sort(ts), ts[::-1], rng.permutation(ts)):
            with pytest.raises(QueryRangeError) as want:
                query_ref(model, GEO, order)
            with pytest.raises(QueryRangeError) as got:
                rec.query(order)
            assert got.value.timestamp == want.value.timestamp
    return len(good), len(ts) - len(good)


def test_query_matches_scalar_reference_on_random_models():
    rng = np.random.default_rng(14)
    totals = np.zeros(2, dtype=int)
    for seed in range(40):
        model = random_model(np.random.default_rng(seed))
        totals += assert_query_matches_reference(model, probe_times(model, rng), rng)
    assert totals.min() > 100  # many timestamps resolve, and many do not


def flat_segment(t0_index, n_samples, p0_q):
    """A segment with no coefficients and no end steps, so every sample of
    each dimension equals its start value."""
    n_full, _ = Layout.derive(10.0, 5.0, len(p0_q), GEO).partition(n_samples - 1)
    blocks = ((EncodedBlock(()),) * (n_full + 1),) * len(p0_q)
    return SubTrajectorySegment(t0_index, p0_q, n_samples, blocks)


def test_query_matches_scalar_reference_on_hand_built_models():
    rng = np.random.default_rng(15)
    header = dict(dim=2, dt=1.0, eps=10.0, eps_t=0.01, eps_p=5.0, chunk_bits=2)
    model = hand_built(**header)
    # A ends where B starts, C starts one time index before B ends; one
    # outlier sits just after A's end, inside B, and one far from all
    end_a = segment_end_index(0, 11, model.dt, model.eps_t)
    end_b = segment_end_index(end_a, 6, model.dt, model.eps_t)
    touching = hand_built(
        **header,
        segments=(flat_segment(0, 11, (1, 2)), flat_segment(end_a, 6, (3, 4)),
                  flat_segment(end_b - 1, 4, (5, 6))),
        outliers=((end_a + 1, (7, 8)), (10**6, (9, 10))),
        corrections=((end_a, (1, -1)), (end_b, (2, 2))))
    ts = probe_times(touching, rng)
    assert_query_matches_reference(touching, ts, rng)
    # the shared boundary belongs to the later segment, corrected there
    lay = Layout.derive(10.0, 5.0, 2, GEO)
    boundary = Reconstructor(touching, GEO).query([end_a * model.eps_t])[0]
    np.testing.assert_array_equal(
        boundary, dequantize_array([3, 4], 5.0) + dequantize_array([1, -1], lay.eps_d))

    outliers_only = hand_built(**header, outliers=((5, (1, 1)), (900, (2, 3))))
    ts = probe_times(outliers_only, rng)
    assert assert_query_matches_reference(outliers_only, ts, rng) == (6, 2)


def _resolves(model, t) -> bool:
    try:
        query_ref(model, GEO, [t])
        return True
    except QueryRangeError:
        return False


def test_many_short_segments_in_one_chunk_match_the_reference():
    # about 40 short segments, each touching the one before, overlapping it
    # by one time index, or after a gap that holds one outlier; corrections
    # sit on the segments' starts and ends, where runs open and close
    rng = np.random.default_rng(16)
    header = dict(dim=2, dt=1.0, eps=10.0, eps_t=0.01, eps_p=5.0, chunk_bits=2)
    segments, outliers, boundaries = [], [], set()
    t0 = 0
    for i in range(40):
        n = int(rng.integers(2, 6))
        segments.append(flat_segment(t0, n, (i, -i)))
        end = segment_end_index(t0, n, header["dt"], header["eps_t"])
        boundaries |= {t0, end}
        kind = i % 3
        if kind == 0:
            t0 = end
        elif kind == 1:
            t0 = end - 1
        else:
            gap = int(rng.integers(5, 300))
            outliers.append((end + gap // 2 + 1, (100 + i, 200 + i)))
            t0 = end + gap
    corrections = [(t, (1 + t % 5, -(t % 7))) for t in sorted(boundaries)]
    model = hand_built(**header, segments=tuple(segments), outliers=tuple(outliers),
                       corrections=tuple(corrections))
    ts = probe_times(model, rng)
    good, bad = assert_query_matches_reference(model, ts, rng)
    assert good > 500 and bad > 50
    # a sparse query leaves most segments' runs empty, and an outlier's
    # neighbours only: the out-of-reach intervals hold outlier hits alone
    sparse = np.sort(ts[rng.random(ts.size) < 0.1])
    hits = np.array([t for t, _ in outliers]) * model.eps_t
    assert_query_matches_reference(model, np.concatenate([sparse, hits]), rng)
    # chunks of a few timestamps open and close runs at every chunk boundary
    resolves = np.sort(np.concatenate([ts[[_resolves(model, t) for t in ts]], hits]))
    want = query_ref(model, GEO, resolves)
    rec = Reconstructor(model, GEO)
    for chunk in (1, 2, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "_QUERY_CHUNK", chunk)
            assert rec.query(resolves).tobytes() == want.tobytes()


def test_query_beyond_float64_is_a_range_error(compressed):
    # an integer timestamp too large for float64 lies out of every reach
    traj, params, model = compressed
    rec = Reconstructor(model, params)
    for big, want in ((10**400, math.inf), (-10**400, -math.inf)):
        for ts in (big, [big], [float(traj.times[0]), big]):
            with pytest.raises(QueryRangeError) as exc:
                rec.query(ts)
            assert exc.value.timestamp == want


def _peak_above_output(rec, ts) -> int:
    """The peak traced allocation of one query, less its output array."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = rec.query(ts)
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


def test_query_memory_is_bounded_by_the_chunk(compressed):
    # a query eight times as long, in order or shuffled, allocates at its
    # peak little more than the shorter one beyond the positions it returns
    traj, params, model = compressed
    rec = Reconstructor(model, params)
    rng = np.random.default_rng(17)
    for shuffled in (False, True):
        peaks = []
        for n in (2**17, 2**20):
            ts = np.sort(rng.choice(traj.times, n))
            peaks.append(_peak_above_output(rec, rng.permutation(ts) if shuffled else ts))
        assert peaks[1] <= 1.25 * peaks[0], (shuffled, peaks)
