"""The one form of a model: its header values and read-only int64 columns.

Models that the library builds (``compress``, ``parse``) keep the plan of
their blocks and are trusted; models built by hand from records
(``model_gen.hand_built``) carry no plan, so the one column check applies
every rule to them.  Both compare by their columns, serialize to the same
bytes and decode to the same bits; the library's own path never makes a
record, which only the segments' read-out does."""

import cProfile
import pstats
from dataclasses import replace

import numpy as np
import pytest
from model_gen import hand_built, random_model

from pilotc import Reconstructor, compress, parse, serialize
from pilotc.blocks import BlockPlan
from pilotc.container import check_columns
from pilotc.errors import CorruptionError
from pilotc.model import (
    BlockColumns,
    EncodedBlock,
    EntryColumns,
    SegmentColumns,
    SubTrajectorySegment,
)
from pilotc.params import PROFILES, CodecParams, Layout
from pilotc.synth import synthetic_trajectory

GEO = PROFILES["geolife"]
MIXED = dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.002, teleport_rate=0.0005)
HEADER = ("dim", "dt", "eps", "eps_t", "eps_p", "chunk_bits")


def read_out_copy(model):
    """``model`` built by hand from the records its segments read out as,
    and from its entries' rows."""
    def records(entries):
        return list(zip(entries.t_index.tolist(), entries.values.tolist()))

    return hand_built(**{k: getattr(model, k) for k in HEADER}, segments=list(model.segments),
                      outliers=records(model.outliers), corrections=records(model.corrections))


def query_times(model, traj=None):
    """Each segment's grid times and each outlier's time, and ``traj``'s."""
    segments = model.segments
    times = [t0 * model.eps_t + k * model.dt for t0, n in zip(segments.t0_index, segments.n_samples)
             for k in range(0, n, max(1, n // 7))]
    times += [t * model.eps_t for t in model.outliers.t_index.tolist()]
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
def test_read_out_rebuilds_an_equal_model(name, model, traj):
    # the read-out's records, built into columns by hand, make a model
    # without a plan: the column check lays it out anew, and it is equal,
    # serializes to the same bytes and decodes to the same bits
    copy = read_out_copy(model)
    assert copy.segments.store.plan is None
    assert model == copy and copy == model
    assert not (model != copy or copy != model)
    lay = Layout.derive(model.eps, model.eps_p, model.dim, GEO)
    plan = check_columns(model, lay)
    assert plan is model.segments.store.plan
    fresh = check_columns(copy, lay)
    for column in ("chain_start", "per_chain", "length", "limit"):
        assert np.array_equal(getattr(fresh, column), getattr(plan, column)), column
    payload = serialize(model, GEO)
    assert serialize(copy, GEO) == payload
    back = parse(payload, GEO)
    assert back == model and serialize(back, GEO) == payload
    got, want = ([values.tobytes() for _, values in Reconstructor(m, GEO).segment_grids()]
                 for m in (model, copy))
    assert got == want
    times = query_times(model, traj)
    assert (Reconstructor(model, GEO).query(times).tobytes()
            == Reconstructor(copy, GEO).query(times).tobytes())


def _changed(model, column=None):
    """A copy of ``model`` made of new column holders; with ``column``, the
    last value of that column is one larger."""
    segments, store = model.segments, model.segments.store
    cols = {
        "t0_index": segments.t0_index, "p0_q": segments.p0_q, "n_samples": segments.n_samples,
        "c_f": store.c_f, "end_delta": store.end_delta, "coeffs": store.coeffs,
        "outlier t_index": model.outliers.t_index, "outlier values": model.outliers.values,
        "correction t_index": model.corrections.t_index,
        "correction values": model.corrections.values,
    }
    cols = {k: np.array(v) for k, v in cols.items()}
    if column:
        cols[column].flat[-1] += 1
    return replace(
        model,
        segments=SegmentColumns(cols["t0_index"].tolist(), cols["p0_q"],
                                cols["n_samples"].tolist(),
                                BlockColumns(cols["c_f"], cols["end_delta"], cols["coeffs"])),
        outliers=EntryColumns(cols["outlier t_index"], cols["outlier values"]),
        corrections=EntryColumns(cols["correction t_index"], cols["correction values"]))


@pytest.fixture(scope="module")
def full_model():
    """A compress model with segments, outliers and corrections."""
    traj = synthetic_trajectory(20_000, dim=2, seed=7, jitter=1.0, gap_jitter=0.4,
                                big_gap_rate=0.01, teleport_rate=0.002)
    model = compress(traj, GEO.params(10.0, eps_t=0.01))
    assert len(model.segments) > 100 and len(model.outliers) > 2 and len(model.corrections) > 100
    return traj, model


@pytest.mark.parametrize("column", ["t0_index", "p0_q", "n_samples", "c_f", "end_delta",
                                    "coeffs", "outlier t_index", "outlier values",
                                    "correction t_index", "correction values"])
def test_one_changed_value_makes_models_unequal(column, full_model):
    _, model = full_model
    assert _changed(model) == model
    other = _changed(model, column)
    for a, b in ((model, other), (other, model)):
        assert a != b and not a == b


@pytest.mark.parametrize("field", HEADER)
def test_one_changed_header_value_makes_models_unequal(field, full_model):
    _, model = full_model
    other = replace(model, **{field: getattr(model, field) + 1})
    assert other != model and not model == other


def test_models_are_not_hashable(full_model):
    with pytest.raises(TypeError):
        hash(full_model[1])


def test_columns_are_read_only(full_model):
    _, model = full_model
    hand = random_model(np.random.default_rng(3))
    for m in (model, parse(serialize(model, GEO), GEO), hand):
        s = m.segments.store
        for column in (m.segments.p0_q, s.c_f, s.end_delta, s.coeffs, s.offsets,
                       m.outliers.t_index, m.outliers.values,
                       m.corrections.t_index, m.corrections.values):
            with pytest.raises(ValueError):
                column[:1] = 7


def test_round_trip_makes_no_record(monkeypatch, full_model):
    # compress, serialize, parse and query keep every segment, block,
    # outlier and correction in columns; only the segments' read-out makes
    # records, one segment at a time
    made = []
    for kind in (EncodedBlock, SubTrajectorySegment):
        def counting(cls, *args, _new=kind.__new__, **kwargs):
            made.append(cls)
            return _new(cls, *args, **kwargs)
        monkeypatch.setattr(kind, "__new__", counting)
    params = GEO.params(10.0, eps_t=0.01)
    traj, _ = full_model
    model = compress(traj, params)
    parsed = parse(serialize(model, GEO), GEO)
    positions = Reconstructor(parsed, GEO).query(traj.times)
    assert np.linalg.norm(positions - traj.points, axis=1).max() <= params.eps
    assert parsed.segments.store.c_f.size > 1000
    assert made == []
    first = next(iter(parsed.segments))
    n_blocks = sum(map(len, first.blocks))
    assert made == [EncodedBlock] * n_blocks + [SubTrajectorySegment]


def test_round_trip_makes_no_encoded_block(monkeypatch):
    # compress, serialize, parse and query code every block through the
    # int64 columns; only reading the segments out makes EncodedBlock records
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
    assert parsed.segments.store.c_f.size > 100
    assert made == []
    first = next(iter(parsed.segments))
    assert made == [(b.q_coeffs, b.end_delta_q) for dim in first.blocks for b in dim]


def test_read_out_needs_the_plan():
    with pytest.raises(ValueError, match="plan"):
        list(random_model(np.random.default_rng(0), dim=1).segments)


def test_store_meets_the_rule_of_the_constants_and_lengths_it_is_used_with():
    model = compress(synthetic_trajectory(3000, dim=2, seed=0, **MIXED),
                     GEO.params(10.0, eps_t=0.01))
    lay = Layout.derive(model.eps, model.eps_p, model.dim, GEO)
    # geolife3d shares geolife's block size but keeps fewer coefficients, so
    # blocks that met geolife's budgets break geolife3d's
    other = PROFILES["geolife3d"]
    other_lay = Layout.derive(model.eps, model.eps_p, model.dim, other)
    assert other_lay.b_s == lay.b_s
    assert model.segments.store.c_f.max() > other_lay.budget(lay.b_s) - 1
    # the same blocks in a segment shortened to a one-velocity tail, whose
    # budget holds no coefficient
    first = next(iter(model.segments))
    assert any(b[-1].c_f for b in first.blocks)
    short = lay.partition(first.n_samples - 1)[0] * lay.b_s + 2
    for m in (model, parse(serialize(model, GEO), GEO)):
        s = m.segments
        shortened = replace(m, segments=SegmentColumns(
            s.t0_index, s.p0_q, [short, *s.n_samples[1:]], s.store))
        for bad, constants in ((m, other), (shortened, GEO)):
            with pytest.raises(ValueError, match="retention budget"):
                serialize(bad, constants)
            with pytest.raises(CorruptionError, match="retention budget"):
                Reconstructor(bad, constants)


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


def test_compress_and_serialize_keep_their_call_budget():
    # the per-track set-up that short tracks pay, pinned as the calls that
    # cProfile counts, Python and C alike, in compress and serialize of one
    # 500-point 3-D track at the short-track benchmark's settings; with
    # numpy 2.4.6 on CPython 3.11 this reads 460 calls (766 before the
    # set-up was trimmed, 472 before the block plan was), and the bound
    # leaves 5% over 472 for other versions
    profile = replace(PROFILES["geolife3d"], eps_t=0.01, chunk_bits=1)
    params = profile.params(20.0)
    traj = synthetic_trajectory(500, dim=3, seed=1, **MIXED)
    payload = serialize(compress(traj, params), profile)  # fills the caches
    counter = cProfile.Profile()
    counter.enable()
    try:
        again = serialize(compress(traj, params), profile)
    finally:
        counter.disable()
    assert again == payload
    assert pstats.Stats(counter).total_calls <= 472 * 1.05


def test_parse_and_decode_keep_their_call_budget():
    # the read side of the same track: parse, the decoder's set-up and one
    # query of its timestamps; with numpy 2.4.6 on CPython 3.11 this reads
    # 286 calls for its 11 corrections (786 when the l = 1 reader made one
    # call per field and tabulated every bit position, 290 for 5 corrections
    # before coefficient selection), and the bound leaves 5% over 290 for
    # other versions
    profile = replace(PROFILES["geolife3d"], eps_t=0.01, chunk_bits=1)
    traj = synthetic_trajectory(500, dim=3, seed=1, **MIXED)
    payload = serialize(compress(traj, profile.params(20.0)), profile)
    expected = Reconstructor(parse(payload, profile), profile).query(traj.times)  # fills the caches
    counter = cProfile.Profile()
    counter.enable()
    try:
        positions = Reconstructor(parse(payload, profile), profile).query(traj.times)
    finally:
        counter.disable()
    assert positions.tobytes() == expected.tobytes()
    assert pstats.Stats(counter).total_calls <= 290 * 1.05


def test_sample_count_beyond_int64_in_a_model_built_by_hand_is_corruption():
    # b_s = 9e18 at eps = 1.8e19 makes 2**63 samples two blocks, which meet
    # the block rule; their layout cannot be held in int64
    blocks = ((EncodedBlock(()), EncodedBlock(())),)
    model = hand_built(dim=1, dt=1e-300, eps=1.8e19, eps_t=1.0, eps_p=9e18, chunk_bits=2,
                       segments=(SubTrajectorySegment(0, (0,), 2**63, blocks),))
    with pytest.raises(CorruptionError):
        Reconstructor(model, GEO)
    # below the range too: one sample has no velocity to partition into blocks
    model = hand_built(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
                       segments=(SubTrajectorySegment(0, (0,), 1, ((EncodedBlock(()),),)),))
    with pytest.raises(CorruptionError, match="at least one velocity"):
        Reconstructor(model, GEO)
    with pytest.raises(ValueError, match="sample count 1"):
        serialize(model, GEO)


_BROKEN_ENTRIES = {
    "wrong width": [(5, (1,))],
    "unsorted": [(7, (1, 2)), (5, (1, 2))],
}


@pytest.mark.parametrize("entries", _BROKEN_ENTRIES.values(), ids=_BROKEN_ENTRIES)
@pytest.mark.parametrize("field", ["outliers", "corrections"])
def test_entries_that_break_a_rule_in_a_model_built_by_hand_are_corruption(field, entries):
    # the decoder applies the column check that serialize applies, so a
    # broken entry rule is a CorruptionError there, never a numpy error
    model = hand_built(dim=2, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
                       **{field: entries})
    with pytest.raises(CorruptionError):
        Reconstructor(model, GEO)
    with pytest.raises(ValueError):
        serialize(model, GEO)


@pytest.mark.parametrize("field", ["outliers", "corrections"])
def test_entry_columns_of_unequal_length_are_rejected(field):
    # two time indices and three rows of values: the column check names the
    # rule on both sides, where numpy would broadcast or answer queries
    model = hand_built(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2)
    broken = replace(model, **{field: EntryColumns([100, 200], [[1], [2], [3]])})
    with pytest.raises(ValueError, match="one time index per row"):
        serialize(broken, GEO)
    with pytest.raises(CorruptionError, match="one time index per row"):
        Reconstructor(broken, GEO)


@pytest.mark.parametrize("store", [
    BlockColumns([0], [0, 0], []),  # an end delta too many
    BlockColumns([2], [0], [5]),  # a coefficient too few
    BlockColumns([-1, 1], [0, 0], []),  # a negative count
])
def test_block_columns_that_disagree_are_rejected(store):
    # one block per dimension for 11 samples at eps = 10 (b_s = 30)
    model = hand_built(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2)
    broken = replace(model, segments=SegmentColumns([0], [[0]], [11], store))
    lay = Layout.derive(10.0, 5.0, 1, GEO)
    with pytest.raises(ValueError, match="blocks|block columns"):
        check_columns(broken, lay)
    with pytest.raises(ValueError):
        serialize(broken, GEO)
    with pytest.raises(CorruptionError):
        Reconstructor(broken, GEO)


def test_segment_heads_that_disagree_are_rejected():
    model = hand_built(dim=2, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2)
    store = BlockColumns([0, 0], [0, 0], [])
    for t0_index, p0_q, n_samples in (([0], [[0]], [11]), ([0], [[0, 0]], [11, 11]),
                                      ([0, 5], [[0, 0]], [11, 11])):
        broken = replace(model, segments=SegmentColumns(t0_index, p0_q, n_samples, store))
        with pytest.raises(ValueError, match="segment start"):
            serialize(broken, GEO)
        with pytest.raises(CorruptionError, match="segment start"):
            Reconstructor(broken, GEO)


_BROKEN_HEADERS = {"eps=0": ("eps", 0.0), "eps=nan": ("eps", float("nan")),
                   "eps_t=0": ("eps_t", 0.0), "dt<0": ("dt", -1.0), "eps_p=0": ("eps_p", 0.0)}


@pytest.mark.parametrize("field, value", _BROKEN_HEADERS.values(), ids=_BROKEN_HEADERS)
def test_header_that_breaks_the_rule_in_a_model_built_by_hand_is_corruption(field, value):
    # the decoder applies serialize's header rule before it derives a
    # layout, so none of these divides by zero, answers, or reads as a
    # query out of range
    blocks = ((EncodedBlock(()),),)  # 11 samples at eps = 10 (b_s = 30): one empty block
    model = hand_built(dim=1, dt=0.01, eps=10.0, eps_t=0.01, eps_p=5.0, chunk_bits=2,
                       segments=(SubTrajectorySegment(0, (0,), 11, blocks),))
    assert Reconstructor(model, GEO).query(0.05).tolist() == [[0.0]]
    broken = replace(model, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        serialize(broken, GEO)
    with pytest.raises(CorruptionError, match=f"{field} must be positive and finite"):
        Reconstructor(broken, GEO).query(0.05)


def test_columns_take_only_values_that_int64_holds():
    # values of another dtype are checked, not cast: a uint64 value beyond
    # int64 would wrap negative and a float would be truncated
    for beyond in (np.array([2**63], dtype=np.uint64), [2**63], [5, 2**64], [1, 2**63, -1]):
        with pytest.raises(OverflowError):
            EntryColumns(beyond, np.zeros((len(beyond), 1), dtype=np.int64))
    for floats in (np.array([[1.7]]), [[1.7]], [[1.0]]):
        with pytest.raises(TypeError):
            EntryColumns([5], floats)
    with pytest.raises(TypeError):
        BlockColumns(np.array([1.0]), [0], [3])
    # other integer dtypes and empty arrays of any dtype are taken as int64
    entries = EntryColumns(np.array([2**63 - 1], dtype=np.uint64), np.array([[-3]], np.int8))
    assert entries.t_index.tolist() == [2**63 - 1] and entries.values.tolist() == [[-3]]
    assert EntryColumns([], np.zeros((0, 2))).values.dtype == np.int64
    # an int64 array is taken as it is, without a copy
    t_index = np.array([5, 7])
    assert EntryColumns(t_index, np.zeros((2, 1), dtype=np.int64)).t_index is t_index


def test_decoder_leaves_the_dimension_limit_to_the_container():
    # the one-byte dimension field limits what serialize writes, not what
    # the decoder answers for a model the library built
    traj = synthetic_trajectory(40, dim=256, seed=3)
    model = compress(traj, CodecParams(eps=10.0))
    with pytest.raises(ValueError, match="dimension must be in 1..255"):
        serialize(model, GEO)
    rec = Reconstructor(model, GEO)
    assert np.abs(rec.query(traj.times) - traj.points).max() <= 10.0
    assert len(list(rec.segment_grids())) == len(model.segments.t0_index)
