"""The two forms of a model's records: the int64 columns that every model
the library builds keeps, read through views (segments, per-dimension
blocks, outliers and corrections), and the tuples of a model built by hand.
Both must compare equal, serialize to the same bytes and decode to the same
bits; and the library's own path must never make a record."""

from dataclasses import replace

import numpy as np
import pytest
from model_gen import random_model

from pilotc import Reconstructor, compress, decompress_uniform, parse, serialize
from pilotc.blocks import BlockPlan
from pilotc.container import block_columns
from pilotc.errors import CorruptionError
from pilotc.model import (
    BlockList,
    CompressedTrajectory,
    CorrectionEntry,
    EncodedBlock,
    EntryList,
    OutlierEntry,
    SegmentList,
    SubTrajectorySegment,
)
from pilotc.params import PROFILES, Layout
from pilotc.synth import synthetic_trajectory

GEO = PROFILES["geolife"]
MIXED = dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.002, teleport_rate=0.0005)


def tuple_copy(model):
    """``model`` with its segments, their block lists, its outliers and its
    corrections rebuilt as tuples of records."""
    return replace(model, segments=tuple(
        SubTrajectorySegment(t0, p0, n, tuple(map(tuple, blocks)))
        for t0, p0, n, blocks in model.segments),
        outliers=tuple(model.outliers), corrections=tuple(model.corrections))


def query_times(model, traj=None):
    """Each segment's grid times and each outlier's time, and ``traj``'s."""
    times = [t0 * model.eps_t + k * model.dt for t0, _, n, _ in model.segments
             for k in range(0, n, max(1, n // 7))]
    times += [e.t_index * model.eps_t for e in model.outliers]
    return np.array(times + ([] if traj is None else traj.times.tolist()))


def library_models():
    """Models the library built: parses of random models at several chunk
    lengths, and compress output in one to three dimensions."""
    for seed in range(6):
        for chunk_bits in (1, 2, 3, 8):
            model = random_model(np.random.default_rng(seed), chunk_bits=chunk_bits)
            yield f"random {seed} l={chunk_bits}", parse(serialize(model, GEO), GEO), None
    params = GEO.params(10.0, eps_t=0.01)
    for dim in (1, 2, 3):
        traj = synthetic_trajectory(3000, dim=dim, seed=20 + dim, **MIXED)
        yield f"compress dim {dim}", compress(traj, params), traj


@pytest.mark.parametrize("name, model, traj", library_models(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_views_and_tuples_agree(name, model, traj):
    copy = tuple_copy(model)
    lay = Layout.derive(model.eps, model.eps_p, model.dim, GEO)
    if model.segments:
        store = model.segments[0].blocks[0].store
        assert all(isinstance(b, BlockList) and b.store is store
                   for seg in model.segments for b in seg.blocks)
        cols, plan = block_columns(model.segments, model.dim, lay)
        assert cols is store and plan is store.plan
        rebuilt, fresh = block_columns(copy.segments, model.dim, lay)
        for column in ("c_f", "end_delta", "coeffs", "offsets"):
            assert np.array_equal(getattr(rebuilt, column), getattr(store, column)), column
        assert fresh is not plan
        for column in ("chain_start", "per_chain", "length", "limit"):
            assert np.array_equal(getattr(fresh, column), getattr(plan, column)), column
    assert isinstance(model.outliers, EntryList) and isinstance(model.corrections, EntryList)
    assert isinstance(model.segments, SegmentList) or model.segments == ()
    views = [model.segments, model.outliers, model.corrections]
    views += [model.segments[-1].blocks[-1]] if model.segments else []
    for view in views:
        assert view == tuple(view) and tuple(view) == view
        assert not (view != tuple(view) or tuple(view) != view)
        assert hash(view) == hash(tuple(view))
        assert len(view) == len(tuple(view))
        assert view[1:] == tuple(view)[1:] and view[::-2] == tuple(view)[::-2]
        if view:
            assert view[-1] == tuple(view)[-1] and view[0] == tuple(view)[0]
    assert model == copy and copy == model
    assert not (model != copy or copy != model)
    assert hash(model) == hash(copy)
    payload = serialize(model, GEO)
    assert payload == serialize(copy, GEO)
    assert parse(payload, GEO) == model  # view against view
    if model.segments:
        # one end delta off: unequal in every pairing of the two forms
        (t0, p0, n, blocks), *rest = copy.segments
        (coeffs, delta), *later = blocks[0]
        other = replace(copy, segments=(SubTrajectorySegment(
            t0, p0, n, (((coeffs, delta + 1), *later), *blocks[1:])), *rest))
        other_views = parse(serialize(other, GEO), GEO)
        for a, b in ((model, other), (other, model), (model, other_views)):
            assert a != b and not a == b
    if model.corrections:
        # one correction value off: unequal in every pairing of the two forms
        (t, values), *rest = copy.corrections
        other = replace(copy, corrections=(CorrectionEntry(t, (values[0] + 1, *values[1:])),
                                           *rest))
        other_views = parse(serialize(other, GEO), GEO)
        for a, b in ((model, other), (other, model), (model, other_views)):
            assert a != b and not a == b

    got, want = decompress_uniform(model, GEO), decompress_uniform(copy, GEO)
    assert [s.values.tobytes() for s in got] == [s.values.tobytes() for s in want]
    times = query_times(model, traj)
    assert (Reconstructor(model, GEO).query(times).tobytes()
            == Reconstructor(copy, GEO).query(times).tobytes())


def test_store_meets_the_rule_of_the_constants_and_lengths_it_is_used_with():
    model = compress(synthetic_trajectory(3000, dim=2, seed=0, **MIXED),
                     GEO.params(10.0, eps_t=0.01))
    lay = Layout.derive(model.eps, model.eps_p, model.dim, GEO)
    # geolife3d shares geolife's block size but keeps fewer coefficients, so
    # blocks that met geolife's budgets break geolife3d's
    other = PROFILES["geolife3d"]
    other_lay = Layout.derive(model.eps, model.eps_p, model.dim, other)
    assert other_lay.b_s == lay.b_s
    assert model.segments[0].blocks[0].store.c_f.max() > other_lay.budget(lay.b_s) - 1
    # the same blocks in a segment shortened to a one-velocity tail, whose
    # budget holds no coefficient
    (t0, p0, n, blocks), *rest = model.segments
    assert any(b[-1].c_f for b in blocks)
    short = lay.partition(n - 1)[0] * lay.b_s + 2
    for m in (model, parse(serialize(model, GEO), GEO)):
        shortened = replace(m, segments=(m.segments[0]._replace(n_samples=short),
                                         *m.segments[1:]))
        for bad, constants in ((m, other), (shortened, GEO)):
            with pytest.raises(ValueError, match="retention budget"):
                serialize(bad, constants)
            with pytest.raises(CorruptionError, match="retention budget"):
                Reconstructor(bad, constants)
            with pytest.raises(CorruptionError, match="retention budget"):
                decompress_uniform(bad, constants)


def test_views_are_read_only():
    model = compress(synthetic_trajectory(500, dim=2, seed=4), GEO.params(10.0))
    store = model.segments[0].blocks[0].store
    for column in (store.c_f, store.end_delta, store.coeffs, store.offsets):
        with pytest.raises(ValueError):
            column[:1] = 7


def test_round_trip_makes_no_encoded_block(monkeypatch):
    # compress, serialize, parse and query code every block through the
    # int64 columns; only reading a view makes EncodedBlock records
    made = []
    new = EncodedBlock.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(EncodedBlock, "__new__", counting)
    params = GEO.params(10.0, eps_t=0.01)
    traj = synthetic_trajectory(5000, dim=2, seed=5, **MIXED)
    model = compress(traj, params)
    parsed = parse(serialize(model, GEO), GEO)
    positions = Reconstructor(parsed, GEO).query(traj.times)
    assert np.linalg.norm(positions - traj.points, axis=1).max() <= params.eps
    assert sum(len(b) for seg in parsed.segments for b in seg.blocks) > 100
    assert made == []
    first = parsed.segments[0].blocks[0][0]
    assert made == [(first.q_coeffs, first.end_delta_q)]


def test_round_trip_makes_no_record(monkeypatch):
    # compress, serialize, parse and query keep segment heads, outliers and
    # corrections as columns; only reading a view makes records
    made = []
    for kind in (OutlierEntry, CorrectionEntry, SubTrajectorySegment):
        def counting(cls, *args, _new=kind.__new__, **kwargs):
            made.append(cls)
            return _new(cls, *args, **kwargs)
        monkeypatch.setattr(kind, "__new__", counting)
    params = GEO.params(10.0, eps_t=0.01)
    traj = synthetic_trajectory(20_000, dim=2, seed=7, jitter=1.0, gap_jitter=0.4,
                                big_gap_rate=0.01, teleport_rate=0.002)
    model = compress(traj, params)
    parsed = parse(serialize(model, GEO), GEO)
    positions = Reconstructor(parsed, GEO).query(traj.times)
    assert np.linalg.norm(positions - traj.points, axis=1).max() <= params.eps
    assert len(parsed.outliers) > 2 and len(parsed.corrections) > 100
    assert len(parsed.segments) > 100
    assert made == []
    _ = parsed.outliers[0], parsed.corrections[-1], parsed.segments[1]
    assert made == [OutlierEntry, CorrectionEntry, SubTrajectorySegment]


def test_round_trip_lays_out_each_model_once(monkeypatch):
    # the encoder's plan stays with its store, so neither validation nor
    # serialize lays the blocks out again; parse lays out what it read, and
    # the decoder uses the parsed store's plan
    made = []
    init = BlockPlan.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockPlan, "__init__", counting)
    params = GEO.params(10.0, eps_t=0.01)
    traj = synthetic_trajectory(20_000, dim=2, seed=6, **MIXED)
    totals = []
    model = compress(traj, params)
    totals.append(len(made))
    payload = serialize(model, GEO)
    totals.append(len(made))
    parsed = parse(payload, GEO)
    totals.append(len(made))
    positions = Reconstructor(parsed, GEO).query(traj.times)
    totals.append(len(made))
    assert np.linalg.norm(positions - traj.points, axis=1).max() <= params.eps
    assert len(model.segments) > 10
    assert totals == [1, 1, 2, 2]


def test_sample_count_beyond_int64_in_a_model_built_by_hand_is_corruption():
    # b_s = 9e18 at eps = 1.8e19 makes 2**63 samples two blocks, which meet
    # the block rule; their layout cannot be held in int64
    blocks = ((EncodedBlock(()), EncodedBlock(())),)
    model = CompressedTrajectory(dim=1, dt=1e-300, eps=1.8e19, eps_t=1.0, eps_p=9e18,
                                 chunk_bits=2,
                                 segments=(SubTrajectorySegment(0, (0,), 2**63, blocks),))
    with pytest.raises(CorruptionError):
        Reconstructor(model, GEO)
    with pytest.raises(CorruptionError):
        decompress_uniform(model, GEO)
    # below the range too: one sample has no velocity to partition into blocks
    model = CompressedTrajectory(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
                                 segments=(SubTrajectorySegment(0, (0,), 1, ((EncodedBlock(()),),)),))
    with pytest.raises(CorruptionError, match="at least one velocity"):
        Reconstructor(model, GEO)
    with pytest.raises(CorruptionError, match="at least one velocity"):
        decompress_uniform(model, GEO)
    with pytest.raises(ValueError, match="sample count 1"):
        serialize(model, GEO)


_BROKEN_ENTRIES = {
    "wrong width": [(5, (1,))],
    "time index 2**63": [(5, (1, 2)), (2**63, (1, 2))],
    "unsorted": [(7, (1, 2)), (5, (1, 2))],
}


@pytest.mark.parametrize("entries", _BROKEN_ENTRIES.values(), ids=_BROKEN_ENTRIES)
@pytest.mark.parametrize("kind", [OutlierEntry, CorrectionEntry])
def test_entries_that_break_a_rule_in_a_model_built_by_hand_are_corruption(kind, entries):
    # the decoder reads entries through the same conversion as serialize,
    # so a broken entry rule is a CorruptionError there, never a numpy error
    model = compress(synthetic_trajectory(500, dim=2, seed=4), GEO.params(10.0))
    label = "outliers" if kind is OutlierEntry else "corrections"
    broken = replace(model, **{label: tuple(kind(t, v) for t, v in entries)})
    with pytest.raises(CorruptionError):
        Reconstructor(broken, GEO)
    with pytest.raises(ValueError):
        serialize(broken, GEO)
