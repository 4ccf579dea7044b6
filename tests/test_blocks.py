import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from codec_reference import decode_blocks_ref, decode_series_ref, encode_series_ref
from model_gen import hand_built
from test_golden import _CHUNK_BITS, _KINDS, _PROFILES, _container

from pilotc import blocks, pipeline, reconstruct
from pilotc.blocks import _BATCH_SAMPLES, decode_rows, encode_rows
from pilotc.container import parse
from pilotc.errors import CorruptionError
from pilotc.model import EncodedBlock, SubTrajectorySegment
from pilotc.params import PROFILES, Layout
from pilotc.pipeline import _encode_segments, compress
from pilotc.reconstruct import Reconstructor, decompress_uniform
from pilotc.synth import synthetic_trajectory
from pilotc.transform import dct_forward


def layout(eps_f, r_ret, b_s):
    return Layout(b_s=b_s, eps_f=eps_f, r_ret=r_ret, eps_d=1.0, eps_out=1.0)


LAY = layout(eps_f=0.01, r_ret=1.0, b_s=100)


def kept_rows(q, kept):
    """The rows of an ``encode_rows`` result as tuples of the kept coefficients."""
    return [tuple(row[:k]) for row, k in zip(q.tolist(), kept.tolist())]


def encode_one(samples, lay=LAY):
    return kept_rows(*encode_rows(np.asarray(samples)[None, :], lay))[0]


def decode_one(q_coeffs, m, start, end, lay=LAY):
    """The m+1 samples of one block: its start, then what decode_rows gives."""
    q = np.zeros((1, lay.budget(m) - 1), dtype=np.int64)
    q[0, :len(q_coeffs)] = q_coeffs
    after = decode_rows(q, m, np.array([start]), np.array([end]), lay)[0]
    return np.concatenate(([start], after))


def test_velocity_construction_reference():
    # S = (0,1,3,6,10): v = (1,2,3,4), v_avg = 2.5, centered sums to zero
    s = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    v = np.diff(s)
    v_avg = (s[-1] - s[0]) / 4
    centered = v - v_avg
    assert v.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert v_avg == 2.5
    assert centered.tolist() == [-1.5, -0.5, 0.5, 1.5]
    assert centered.sum() == 0.0
    # and the encoder stores that array's spectrum to within eps_f per slot
    q_coeffs = encode_one(s)
    spectrum = dct_forward(centered)
    assert len(q_coeffs) <= 3
    stored = np.array(q_coeffs) * (2 * LAY.eps_f)
    np.testing.assert_allclose(stored, spectrum[1:1 + len(q_coeffs)], atol=LAY.eps_f)


def test_linear_block_stores_nothing():
    s = 3.0 + 0.7 * np.arange(41.0)
    assert encode_one(s) == ()


def test_coeff_budget_rule():
    # m = 100, r_ret = 0.04 keeps slots 1..3
    assert layout(0.01, 0.04, 100).budget(100) == 4
    assert layout(0.01, 1.0, 100).budget(100) == 100
    assert layout(0.01, 0.001, 100).budget(1) == 1
    q_coeffs = encode_one(np.cumsum(np.random.default_rng(0).normal(5, 3, 101)),
                          layout(eps_f=0.01, r_ret=0.04, b_s=100))
    assert len(q_coeffs) <= 3


def test_trailing_zeros_are_stripped():
    rng = np.random.default_rng(1)
    rows = np.cumsum(rng.normal(0, 2, (40, 51)), axis=1)
    q, kept = encode_rows(rows, layout(eps_f=0.5, r_ret=1.0, b_s=50))
    assert kept.max() > 0
    for row, k in zip(q, kept):
        assert not row[k:].any()
        if k:
            assert row[k - 1] != 0


def test_round_trip_with_negligible_step():
    rng = np.random.default_rng(2)
    s = np.cumsum(rng.normal(1.0, 0.5, 33))
    lay = layout(eps_f=1e-12, r_ret=1.0, b_s=32)
    back = decode_one(encode_one(s, lay), 32, float(s[0]), float(s[-1]), lay)
    np.testing.assert_allclose(back, s, atol=1e-6)


def test_zero_coeffs_interpolates_straight_line():
    lay = layout(eps_f=0.1, r_ret=1.0, b_s=10)
    back = decode_one((), 10, 2.0, 12.0, lay)
    np.testing.assert_allclose(back, 2.0 + np.arange(11.0), atol=1e-12)


def test_endpoints_are_exact():
    rng = np.random.default_rng(3)
    lay = layout(eps_f=0.3, r_ret=1.0, b_s=64)
    s = np.cumsum(rng.normal(0.0, 4.0, 65))
    back = decode_one(encode_one(s, lay), 64, -5.0, 11.25, lay)
    assert back[0] == -5.0
    assert back[-1] == pytest.approx(11.25, rel=1e-9)


def test_quantization_error_stays_conservatively_bounded():
    rng = np.random.default_rng(4)
    lay = layout(eps_f=0.01, r_ret=1.0, b_s=100)
    speeds = np.stack([np.convolve(rng.normal(3.0, 1.0, 120), np.ones(20) / 20, "valid")
                       for _ in range(50)])
    s = np.cumsum(speeds, axis=1)
    back = decode_rows(encode_rows(s, lay)[0], 100, s[:, 0], s[:, -1], lay)
    assert np.abs(back - s[:, 1:]).max() <= lay.eps_f * np.sqrt(100)


def test_variance_model_at_block_midpoint():
    # inject uniform coefficient errors into a zero spectrum and reconstruct:
    # Var at sample k should follow (k*b_s - k^2) * eps_f^2 / (6 b_s^2)
    rng = np.random.default_rng(5)
    b_s, eps_f, trials = 100, 0.5, 20000
    noise = rng.uniform(-eps_f, eps_f, size=(trials, b_s))
    noise[:, 0] = 0.0
    from pilotc.transform import dct_inverse

    deltas = np.cumsum(dct_inverse(noise), axis=1)
    k = b_s // 2
    measured = deltas[:, k - 1].var()
    predicted = (k * b_s - k * k) * eps_f**2 / (6.0 * b_s**2)
    assert measured == pytest.approx(predicted, rel=0.08)


def test_truncation_monotonicity():
    rng = np.random.default_rng(6)
    s = np.cumsum(rng.normal(2.0, 1.5, 101))
    counts = []
    for r_ret in (1.0, 0.5, 0.25, 0.1, 0.05, 0.01):
        counts.append(len(encode_one(s, layout(eps_f=0.05, r_ret=r_ret, b_s=100))))
    assert counts == sorted(counts, reverse=True)


def test_deterministic_encoding():
    rng = np.random.default_rng(7)
    s = np.cumsum(rng.normal(0, 3, 78))
    lay = layout(eps_f=0.02, r_ret=0.7, b_s=90)
    assert encode_one(s, lay) == encode_one(s.copy(), lay)
    # a row codes the same alone and inside a batch
    batch = np.stack([s[::-1], s, s + 4.0])
    assert kept_rows(*encode_rows(batch, lay))[1] == encode_one(s, lay)


def test_malformed_blocks_rejected():
    lay = layout(eps_f=0.1, r_ret=1.0, b_s=10)
    with pytest.raises(ValueError):
        encode_rows(np.array([[1.0]]), lay)
    with pytest.raises(ValueError):
        decode_one((), 0, 0.0, 1.0, lay)
    # only a model built by hand can hold a block over its budget; the
    # decoder checks its blocks as it builds their columns (geolife at
    # eps = 10: b_s = 30 and at most 10 coefficients)
    seg = SubTrajectorySegment(0, (0,), 31, ((EncodedBlock(tuple(range(1, 12))),),))
    model = hand_built(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
                       segments=(seg,))
    with pytest.raises(CorruptionError, match="budget"):
        Reconstructor(model, PROFILES["geolife"])


def test_block_params_validation():
    # every valid parameter set yields usable block knobs: b_s >= 2,
    # eps_f > 0, r_ret in (0, 1] and a budget K(m) in 1..m
    for name, prof in PROFILES.items():
        for eps in (1e-6, 0.3, 10.0, 1e6):
            lay = prof.params(eps).layout(2)
            assert lay.b_s >= 2, name
            assert lay.eps_f > 0.0
            assert 0.0 < lay.r_ret <= 1.0
            for m in (1, 2, lay.b_s):
                assert 1 <= lay.budget(m) <= m


@pytest.mark.parametrize("profile_name, eps", [("geolife", 10.0), ("mopsi", 0.3)])
def test_batched_codec_matches_per_block_reference(profile_name, eps):
    # every tail size 1..b_s, alone and behind two full blocks, in two dimensions
    profile = PROFILES[profile_name]
    params = profile.params(eps)
    lay = params.layout(2)
    rng = np.random.default_rng(8)
    for n_full, tail in itertools.product((0, 2), range(1, lay.b_s + 1)):
        n_samples = n_full * lay.b_s + tail + 1
        values = np.cumsum(rng.normal(3.0, 2.0, (n_samples, 2)), axis=0)
        segs = _encode_segments(values, [n_samples], [0], params)
        seg, = segs
        assert (seg.p0_q, seg.blocks) == encode_series_ref(values, lay, params.eps_p)

        model = hand_built(dim=2, dt=1.0, eps=eps, eps_t=1.0, eps_p=params.eps_p, chunk_bits=2)
        model = replace(model, segments=segs)
        (_, got), = Reconstructor(model, profile).segment_grids()
        want = decode_series_ref(seg.p0_q, seg.blocks, n_samples, lay, params.eps_p)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())



@pytest.mark.parametrize("dim", [1, 2, 3])
def test_segments_coded_together_match_per_block_reference(dim):
    # one call codes segments with no full block, tail lengths that repeat
    # and ones that do not, and one long enough that its full blocks take
    # more than one chunk of a batch; each segment must match the per-block
    # reference on both sides
    profile = PROFILES["geolife"]
    params = profile.params(10.0)
    lay = params.layout(dim)
    b_s = lay.b_s
    assert 1100 * (b_s + 1) > _BATCH_SAMPLES
    shapes = [(0, 1), (0, 7), (3, 7), (1, b_s), (0, b_s), (2, 1), (1100, 12), (1, 7), (0, 2)]
    rng = np.random.default_rng(9 + dim)
    values = [np.cumsum(rng.normal(3.0, 2.0, (n_full * b_s + tail + 1, dim)), axis=0)
              for n_full, tail in shapes]
    t0s = [1000 * i for i in range(len(shapes))]
    segs = _encode_segments(np.concatenate(values), list(map(len, values)), t0s, params)
    assert [(s.t0_index, s.n_samples) for s in segs] == [(t, len(v)) for t, v in zip(t0s, values)]
    for seg, v in zip(segs, values):
        assert (seg.p0_q, seg.blocks) == encode_series_ref(v, lay, params.eps_p)

    model = replace(hand_built(dim=dim, dt=1.0, eps=10.0, eps_t=1.0, eps_p=params.eps_p,
                               chunk_bits=2), segments=segs)
    grids = list(Reconstructor(model, profile).segment_grids())
    assert len(grids) == len(segs)
    for (times, values), seg in zip(grids, segs):
        want = decode_series_ref(seg.p0_q, seg.blocks, seg.n_samples, lay, params.eps_p)
        assert times.tolist() == list(range(seg.t0_index, seg.t0_index + seg.n_samples))
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-9 * np.abs(want).max())


def test_block_codec_calls_do_not_grow_with_segments(monkeypatch):
    # the encoder and validation's decoder each code every segment's blocks
    # in one batch per block length: the codec is called once per chunk of
    # full blocks and once per distinct tail length, not once per segment,
    # and no chunk holds more than _BATCH_SAMPLES samples
    calls = {"encode_rows": 0, "decode_rows": 0}
    sizes = []

    def counting(name, fn):
        def wrapper(rows, *args):
            calls[name] += 1
            m = args[0] if name == "decode_rows" else np.shape(rows)[1] - 1
            sizes.append(len(rows) * (m + 1))
            return fn(rows, *args)
        return wrapper

    for module in (blocks, pipeline, reconstruct):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    traj = synthetic_trajectory(20_000, dim=2, seed=3, jitter=1.0, gap_jitter=0.4,
                                big_gap_rate=0.002, teleport_rate=0.0005)
    params = PROFILES["geolife"].params(10.0, eps_t=0.01)
    model = compress(traj, params)
    lay = params.layout(2)
    parts = [lay.partition(n - 1) for n in model.segments.n_samples]
    full_chunks = math.ceil(2 * sum(n for n, _ in parts) / (_BATCH_SAMPLES // (lay.b_s + 1)))
    bound = full_chunks + len({tail for _, tail in parts})
    assert len(model.segments) >= 30 and bound < len(model.segments)
    assert 0 < calls["encode_rows"] <= bound
    assert 0 < calls["decode_rows"] <= bound
    assert max(sizes) <= _BATCH_SAMPLES


def corpus_models(name: str, tmp_path: Path, monkeypatch):
    """(model, profile) pairs: the 48 golden-corpus containers parsed, or
    the seed-1 corpus of the benchmark workload ``name``, compressed as the
    benchmark compresses it (the CLI workload through ``pilotc compress``)."""
    if name == "golden":
        return [(parse(_container(p, kind, l), PROFILES[p]), PROFILES[p])
                for p, kind, l in itertools.product(_PROFILES, _KINDS, _CHUNK_BITS)]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    w = workloads.WORKLOADS[name]
    state = w.setup(1, False, tmp_path)
    if name == "cli-files":
        assert workloads._cli(*w._encode_args(state.root / "csv", state.root / "plc")) == 0
        return [(parse(state.path("plc", n).read_bytes(), state.profile), state.profile)
                for n in state.names]
    return [(compress(t, state.params), state.profile) for t in state.trajs]


@pytest.mark.parametrize("corpus", ["golden", "geolife2d-tight", "nuplan-longblock",
                                    "geolife3d-short-l1", "cli-files"])
def test_grid_decode_is_bitwise_equal_to_the_reference(corpus, tmp_path, monkeypatch):
    # the in-place batch decode gives the very bits of the reference decode,
    # which makes each float step a fresh array
    models = corpus_models(corpus, tmp_path, monkeypatch)
    assert len(models) == {"golden": 48, "nuplan-longblock": 4, "geolife3d-short-l1": 400,
                           "cli-files": 8}.get(corpus, 1)
    for model, profile in models:
        got = [values.tobytes() for _, values in Reconstructor(model, profile).segment_grids()]
        with monkeypatch.context() as m:
            m.setattr(reconstruct, "decode_blocks", decode_blocks_ref)
            want = [values.tobytes()
                    for _, values in Reconstructor(model, profile).segment_grids()]
        assert len(got) == len(model.segments) and got == want


@pytest.mark.parametrize("corpus", ["golden", "geolife2d-tight", "nuplan-longblock",
                                    "geolife3d-short-l1", "cli-files"])
def test_decompress_uniform_is_the_decoder_grid_by_segment(corpus, tmp_path, monkeypatch):
    # the benchmark reads decompress_uniform's series; each must hold the
    # very bits of the decoder's segment grid and start at its first time
    for model, profile in corpus_models(corpus, tmp_path, monkeypatch):
        series = decompress_uniform(model, profile)
        grids = list(Reconstructor(model, profile).segment_grids())
        assert len(series) == len(grids) == len(model.segments)
        for s, (times, values) in zip(series, grids):
            assert np.float64(s.t0).tobytes() == times[:1].tobytes() and s.dt == model.dt
            assert s.values.shape == values.shape
            assert s.values.tobytes() == values.tobytes()
