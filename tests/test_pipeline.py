import numpy as np
import pytest
from codec_reference import choose_dt_ref, resample_ref, split_runs_ref

from pilotc import (
    PROFILES,
    CodecParams,
    Reconstructor,
    TrajectoryRecord,
    compress,
    serialize,
    synthetic_trajectory,
)
from pilotc.codec import quantize_array, time_index_array
from pilotc.errors import DataError
from pilotc.model import EntryColumns
from pilotc.pipeline import _median, choose_dt, resample, segment, validate_and_correct

GEO = PROFILES["geolife"]


def record(times, points):
    return TrajectoryRecord(np.asarray(times, float), np.asarray(points, float))


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_speed_jump_splits():
    traj = record([0.0, 10.0], [[0.0, 0.0], [5000.0, 0.0]])
    params = GEO.params(10.0)
    bounds = segment(traj, params, default_dt=10.0)
    # 5000 m in 10 s beats v_max = 200; both one-point runs become outliers
    assert bounds.dtype == np.int64
    assert bounds.tolist() == [0, 1, 2]
    assert len(compress(traj, params).outliers) == 2


def test_uniform_walk_is_single_fragment():
    traj = synthetic_trajectory(500, dim=2, seed=0)
    assert segment(traj, GEO.params(10.0), default_dt=1.0).tolist() == [0, 500]
    assert len(compress(traj, GEO.params(10.0)).outliers) == 0


def test_single_point_becomes_outlier():
    traj = record([4.0], [[1.0, 2.0]])
    params = GEO.params(10.0)
    assert segment(traj, params, default_dt=1.0).tolist() == [0, 1]
    model = compress(traj, params)
    assert len(model.segments) == 0 and model.segments.p0_q.shape == (0, 2)
    assert len(model.outliers) == 1
    assert model.outliers.t_index[0] * params.eps_t == pytest.approx(4.0)


def test_large_gap_splits_long_fragment():
    t = np.concatenate([np.arange(100.0), np.arange(100.0) + 99.0 + 500.0])
    x = np.stack([t * 1.0, t * 0.0], axis=1)
    traj = record(t, x)
    # gap of 500 s exceeds b_s=30 times the running average of ~1 s
    assert segment(traj, GEO.params(10.0), default_dt=1.0).tolist() == [0, 100, 200]


# ---------------------------------------------------------------------------
# sampling interval
# ---------------------------------------------------------------------------

def one_run(n):
    return np.array([0]), np.array([n])


@pytest.mark.parametrize("gaps", [
    [0.3], [0.1, 0.2], [0.7, 0.1, 0.2], [0.1, 0.3, 0.2, 0.7], [0.2, 0.2, 0.2, 0.2],
    [1.0, 1.0, 3.0, 1.0, 3.0], [1e-300, 1e300], [0.1 + 0.2, 0.3, 0.1 + 0.2, 0.30000000000000004],
], ids=["one", "two", "odd", "even", "repeated", "repeated odd", "extreme", "float dust"])
def test_median_equals_numpy_bitwise(gaps):
    # the default sampling interval, and so the bytes, depend on this value
    gaps = np.array(gaps)
    kept = gaps.copy()
    assert _median(gaps).hex() == float(np.median(gaps)).hex()
    assert np.array_equal(gaps, kept)
    rng = np.random.default_rng(3)
    for n in (2, 3, 10, 11, 1000, 1001):
        x = rng.exponential(1.0, n)
        assert _median(x).hex() == float(np.median(x)).hex()


def test_choose_dt_duration_over_point_count():
    times = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
    assert choose_dt(times, *one_run(5), eps_t=1.0, default_dt=1.0) == 2.0  # round(8 / 5) = 2


def test_choose_dt_two_fragments():
    times = np.concatenate([np.linspace(0.0, 10.0, 11), np.linspace(20.0, 30.0, 11)])
    # 20 s over 22 points = 0.909..., snapped to the 0.1 grid
    dt = choose_dt(times, np.array([0, 11]), np.array([11, 22]), eps_t=0.1, default_dt=1.0)
    assert dt == pytest.approx(0.9)


def test_choose_dt_already_uniform():
    times = np.arange(101.0) * 0.1
    assert choose_dt(times, *one_run(101), eps_t=0.1, default_dt=1.0) == pytest.approx(0.1)


def test_choose_dt_clamps_to_eps_t():
    times = np.array([0.0, 0.004, 0.008])
    assert choose_dt(times, *one_run(3), eps_t=0.01, default_dt=1.0) == 0.01


def test_choose_dt_without_fragments_snaps_default():
    none = np.zeros(0, dtype=np.int64)
    assert choose_dt(np.array([4.0]), none, none, eps_t=0.5, default_dt=1.3) == 1.5
    assert choose_dt(np.array([4.0]), none, none, eps_t=0.5, default_dt=0.1) == 0.5


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_identity_on_grid():
    t = np.arange(6.0)
    x = np.stack([2.0 * t, 5.0 - t], axis=1)
    values, n_samples = resample(record(t, x), *one_run(6), 1.0)
    assert n_samples.tolist() == [6]
    assert values.flags.f_contiguous
    np.testing.assert_allclose(values, x, atol=1e-12)


def test_resample_linear_interpolation():
    values, _ = resample(record([0.0, 4.0], [[0.0], [8.0]]), *one_run(2), 2.0)
    np.testing.assert_allclose(values[:, 0], [0.0, 4.0, 8.0], atol=1e-12)


def test_resample_overshoot_clamps():
    traj = record([0.0, 2.0, 3.5], [[0.0], [2.0], [3.5]])
    values, n_samples = resample(traj, *one_run(3), 2.0)
    assert n_samples.tolist() == [3]  # grid 0, 2, 4 with the last clamped
    np.testing.assert_allclose(values[:, 0], [0.0, 2.0, 3.5], atol=1e-12)


# ---------------------------------------------------------------------------
# the whole-trajectory front end against the per-fragment reference
# ---------------------------------------------------------------------------

def jumps_between_fragments():
    # fragments of 10, 10 and 8 points separated by one-point and two-point
    # runs far off the track, the last fragment's grid overshooting its end
    t = np.concatenate([np.arange(10.0), [10.5], 11.0 + np.arange(10.0), [21.3, 21.9],
                        22.5 + np.array([0.0, 0.7, 1.9, 2.4, 3.8, 4.1, 5.0, 5.3])])
    x = np.stack([2.0 * t, np.sin(t)], axis=1)
    x[10] += 5e4
    x[21:23] -= 5e4
    return record(t, x)


FRONT_END_CASES = {
    **{f"mixed dim {dim}": (lambda dim=dim: synthetic_trajectory(
        4000, dim=dim, seed=40 + dim, jitter=0.5, gap_jitter=0.8, big_gap_rate=0.03,
        teleport_rate=0.05)) for dim in (1, 2, 3)},
    "short runs between fragments": jumps_between_fragments,
    "no fragment": lambda: record([0.0, 3.0, 5.5, 7.0],
                                  [[0.0, 0.0], [1e6, 0.0], [0.0, 0.0], [1e6, 0.0]]),
}


def check_front_end(traj, params):
    """Resample ``traj`` as compress does and require bitwise equality with
    the per-fragment reference; returns the run bounds, dt, the fragments'
    (lo, hi) and the outlier indices."""
    default_dt = float(np.median(np.diff(traj.times)))
    bounds = segment(traj, params, default_dt)
    fragments, outliers = split_runs_ref(bounds.tolist())
    lo, hi = np.array(fragments, dtype=np.int64).reshape(-1, 2).T

    dt = choose_dt(traj.times, lo, hi, params.eps_t, default_dt)
    assert dt == choose_dt_ref(traj.times, fragments, params.eps_t, default_dt)
    values, n_samples = resample(traj, lo, hi, dt)
    want = [resample_ref(traj.times[a:b], traj.points[a:b], dt) for a, b in fragments]
    assert n_samples.tolist() == [len(w) for w in want]
    assert np.array_equal(values, np.concatenate(want or [np.zeros((0, traj.dim))]))
    return bounds, dt, (lo, hi), outliers


@pytest.mark.parametrize("make", FRONT_END_CASES.values(), ids=FRONT_END_CASES)
def test_front_end_equals_per_fragment_reference(make):
    traj = make()
    params = GEO.params(10.0, eps_t=0.001)
    _, dt, (lo, _), outliers = check_front_end(traj, params)
    # the model's segments and outliers come from the same index arrays
    model = compress(traj, params)
    assert model.dt == dt
    assert model.segments.t0_index == time_index_array(traj.times[lo], params.eps_t).tolist()
    eps_out = params.layout(traj.dim).eps_out
    assert (model.outliers.t_index.tolist()
            == time_index_array(traj.times[outliers], params.eps_t).tolist())
    assert (model.outliers.values.tolist()
            == quantize_array(traj.points[outliers], eps_out).reshape(-1, traj.dim).tolist())


def test_front_end_cases_cover_the_edge_cases():
    runs, clamped = set(), 0
    for make in FRONT_END_CASES.values():
        traj = make()
        bounds, dt, (lo, hi), _ = check_front_end(traj, GEO.params(10.0, eps_t=0.001))
        runs.update(np.diff(bounds).tolist())
        # a fragment whose last grid point lies past its last time
        n = np.ceil((traj.times[hi - 1] - traj.times[lo]) / dt)
        clamped += int(np.sum(traj.times[lo] + n * dt > traj.times[hi - 1]))
    assert {1, 2} <= runs and max(runs) > 100
    assert clamped > 10


def test_resample_ignores_a_steep_step_after_a_fragment():
    # the step after the first fragment's last time is too steep for
    # float64; that time's sample is still the point's position
    t = np.array([0.0, 1.0, 2.0, 3.0, np.nextafter(3.0, 4.0), 4.0, 5.0, 6.0, 7.0])
    x = np.array([[0.0], [1.0], [2.0], [3.0], [1.7e308], [-1.7e308], [5.0], [6.0], [7.0]])
    _, _, (lo, _), _ = check_front_end(record(t, x), GEO.params(10.0, eps_t=0.001))
    assert lo.tolist() == [0, 6]


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_stationary_trajectory():
    t = np.arange(200.0)
    points = np.tile([123.456, -78.9], (200, 1))
    params = GEO.params(10.0)
    model = compress(record(t, points), params)
    approx = Reconstructor(model, params).query(t)
    sed = np.linalg.norm(points - approx, axis=1)
    assert len(model.segments) == 1
    assert sed.mean() <= params.eps_p
    # a stationary signal has no AC content at all
    assert not model.segments.store.c_f.any()


def test_synthetic_profile_bound_and_size(smooth_2d):
    params = GEO.params(10.0)
    model = compress(smooth_2d, params)
    payload = serialize(model, params)
    approx = Reconstructor(model, params).query(smooth_2d.times)
    sed = np.linalg.norm(smooth_2d.points - approx, axis=1)
    assert sed.max() <= 10.0
    assert len(payload) < 0.25 * 24 * smooth_2d.n_points


def test_lossless_settings_need_no_corrections(smooth_2d):
    params = CodecParams(eps=10.0, a=1e13, b=GEO.b, c=GEO.c, d=10.0, eps_t=1.0)
    # a huge keeps eps_f microscopic; d >= sqrt(eps) keeps every coefficient
    assert params.layout(2).r_ret == 1.0
    model = compress(smooth_2d, params)
    assert len(model.corrections) == 0


def test_forced_truncation_needs_corrections(smooth_2d):
    params = CodecParams(eps=2.0, a=0.6, b=GEO.b, c=GEO.c, d=2**-7 * np.sqrt(2.0))
    assert params.layout(2).r_ret == pytest.approx(2**-7)
    model = compress(smooth_2d, params)
    assert len(model.corrections) > 0
    approx = Reconstructor(model, params).query(smooth_2d.times)
    sed = np.linalg.norm(smooth_2d.points - approx, axis=1)
    assert sed.max() <= 2.0


def test_corrected_points_land_within_eps_p(smooth_2d):
    params = CodecParams(eps=2.0, a=0.6, b=GEO.b, c=GEO.c, d=2**-6)
    model = compress(smooth_2d, params)
    assert model.corrections
    rec = Reconstructor(model, params)
    corrected_idx = set(model.corrections.t_index.tolist())
    q = np.rint(smooth_2d.times / params.eps_t).astype(int)
    sel = np.isin(q, list(corrected_idx))
    sed = np.linalg.norm(
        smooth_2d.points[sel] - rec.query(smooth_2d.times[sel]), axis=1)
    assert sed.max() <= params.eps_p + 1e-9


def test_validation_is_consistent_with_decoder_view(smooth_2d):
    from pilotc import parse
    params = GEO.params(5.0)
    model = compress(smooth_2d, params)
    back = parse(serialize(model, params), params)
    approx = Reconstructor(back, params).query(smooth_2d.times)
    sed = np.linalg.norm(smooth_2d.points - approx, axis=1)
    assert sed.max() <= 5.0


def test_deterministic_container(smooth_2d):
    params = GEO.params(7.0)
    a = serialize(compress(smooth_2d, params), params)
    b = serialize(compress(record(smooth_2d.times.copy(), smooth_2d.points.copy()),
                           params), params)
    assert a == b


def test_three_dimensional_input():
    traj = synthetic_trajectory(4000, dim=3, seed=12)
    params = PROFILES["geolife3d"].params(10.0)
    model = compress(traj, params)
    approx = Reconstructor(model, params).query(traj.times)
    assert np.linalg.norm(traj.points - approx, axis=1).max() <= 10.0


def test_nonuniform_sampling_with_gaps_and_teleports():
    traj = synthetic_trajectory(6000, dim=2, seed=13, gap_jitter=0.6,
                                big_gap_rate=0.003, teleport_rate=0.001, jitter=0.5)
    params = GEO.params(5.0, eps_t=0.01)
    model = compress(traj, params)
    assert len(model.segments) > 1
    approx = Reconstructor(model, params).query(traj.times)
    assert np.linalg.norm(traj.points - approx, axis=1).max() <= 5.0


def test_correction_fraction_small_on_smooth_data(smooth_2d):
    # with eps_f = eps/0.6 and full retention, few points need correction
    params = CodecParams(eps=10.0, a=0.6, b=GEO.b, c=GEO.c, d=10.0, eps_t=1.0)
    assert params.layout(2).r_ret == 1.0
    model = compress(smooth_2d, params)
    assert len(model.corrections) / smooth_2d.n_points <= 0.04


def test_validate_and_correct_reports_exceedances_only(smooth_2d):
    from dataclasses import replace
    params = GEO.params(10.0)
    model = compress(smooth_2d, params)
    # validation of the uncorrected model reproduces the stored corrections,
    # and the corrected model needs none at all
    stripped = replace(model, corrections=EntryColumns([], np.zeros((0, 2))))
    assert validate_and_correct(smooth_2d, stripped, params).corrections == model.corrections
    assert len(validate_and_correct(smooth_2d, model, params).corrections) == 0


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_rejects_unordered_timestamps():
    with pytest.raises(DataError):
        compress(record([0.0, 2.0, 1.0], np.zeros((3, 2))), GEO.params(10.0))


def test_rejects_negative_start_time():
    with pytest.raises(DataError):
        compress(record([-1.0, 0.0, 1.0, 2.0], np.zeros((4, 2))), GEO.params(10.0))


def test_rejects_eps_t_coarser_than_sampling():
    t = np.arange(100.0) * 0.25
    with pytest.raises(DataError):
        compress(record(t, np.zeros((100, 2))), GEO.params(10.0, eps_t=1.0))


def test_rejects_non_finite_coordinates():
    pts = np.zeros((3, 2))
    pts[1, 0] = np.nan
    with pytest.raises(DataError):
        compress(record([0.0, 1.0, 2.0], pts), GEO.params(10.0))
