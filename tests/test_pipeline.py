import numpy as np
import pytest

from pilotc import (
    PROFILES,
    CodecParams,
    Reconstructor,
    TrajectoryRecord,
    compress,
    serialize,
    synthetic_trajectory,
)
from pilotc.errors import DataError
from pilotc.pipeline import Fragment, choose_dt, resample, segment, validate_and_correct

GEO = PROFILES["geolife"]


def record(times, points):
    return TrajectoryRecord(np.asarray(times, float), np.asarray(points, float))


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_speed_jump_splits():
    traj = record([0.0, 10.0], [[0.0, 0.0], [5000.0, 0.0]])
    params = GEO.params(10.0)
    frags, outliers = segment(traj, params, default_dt=10.0)
    # 5000 m in 10 s beats v_max = 200; both one-point fragments become outliers
    assert frags == []
    assert len(outliers) == 2


def test_uniform_walk_is_single_fragment():
    traj = synthetic_trajectory(500, dim=2, seed=0)
    frags, outliers = segment(traj, GEO.params(10.0), default_dt=1.0)
    assert len(frags) == 1
    assert len(frags[0]) == 500
    assert outliers == []


def test_single_point_becomes_outlier():
    traj = record([4.0], [[1.0, 2.0]])
    frags, outliers = segment(traj, GEO.params(10.0), default_dt=1.0)
    assert frags == []
    assert len(outliers) == 1
    assert outliers[0][0] == 4.0


def test_large_gap_splits_long_fragment():
    t = np.concatenate([np.arange(100.0), np.arange(100.0) + 99.0 + 500.0])
    x = np.stack([t * 1.0, t * 0.0], axis=1)
    traj = record(t, x)
    frags, outliers = segment(traj, GEO.params(10.0), default_dt=1.0)
    # gap of 500 s exceeds b_s=30 times the running average of ~1 s
    assert len(frags) == 2
    assert outliers == []


# ---------------------------------------------------------------------------
# sampling interval
# ---------------------------------------------------------------------------

def test_choose_dt_duration_over_point_count():
    frag = Fragment(np.array([0.0, 2.0, 4.0, 6.0, 8.0]), np.zeros((5, 2)))
    assert choose_dt([frag], eps_t=1.0) == 2.0  # round(8 / 5) = 2


def test_choose_dt_two_fragments():
    f1 = Fragment(np.linspace(0.0, 10.0, 11), np.zeros((11, 2)))
    f2 = Fragment(np.linspace(20.0, 30.0, 11), np.zeros((11, 2)))
    # 20 s over 22 points = 0.909..., snapped to the 0.1 grid
    assert choose_dt([f1, f2], eps_t=0.1) == pytest.approx(0.9)


def test_choose_dt_already_uniform():
    frag = Fragment(np.arange(101.0) * 0.1, np.zeros((101, 2)))
    assert choose_dt([frag], eps_t=0.1) == pytest.approx(0.1)


def test_choose_dt_clamps_to_eps_t():
    frag = Fragment(np.array([0.0, 0.004, 0.008]), np.zeros((3, 2)))
    assert choose_dt([frag], eps_t=0.01) == 0.01


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_identity_on_grid():
    t = np.arange(6.0)
    x = np.stack([2.0 * t, 5.0 - t], axis=1)
    series = resample(Fragment(t, x), 1.0)
    assert series.n_samples == 6
    np.testing.assert_allclose(series.values, x, atol=1e-12)


def test_resample_linear_interpolation():
    series = resample(Fragment(np.array([0.0, 4.0]), np.array([[0.0], [8.0]])), 2.0)
    np.testing.assert_allclose(series.values[:, 0], [0.0, 4.0, 8.0], atol=1e-12)


def test_resample_overshoot_clamps():
    frag = Fragment(np.array([0.0, 2.0, 3.5]), np.array([[0.0], [2.0], [3.5]]))
    series = resample(frag, 2.0)
    assert series.n_samples == 3  # grid 0, 2, 4 with the last clamped
    np.testing.assert_allclose(series.values[:, 0], [0.0, 2.0, 3.5], atol=1e-12)


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
    assert all(b.c_f == 0 for seg in model.segments for per_dim in seg.blocks for b in per_dim)


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
    assert model.corrections == ()


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
    corrected_idx = {e.t_index for e in model.corrections}
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
    stripped = replace(model, corrections=())
    assert validate_and_correct(smooth_2d, stripped, params).corrections == model.corrections
    assert validate_and_correct(smooth_2d, model, params).corrections == ()


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
