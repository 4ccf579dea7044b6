import itertools
import json
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from codec_reference import VarintReader
from model_gen import hand_built, random_model
from test_golden import _CHUNK_BITS, _KINDS, _PROFILES, _container

import pilotc
from pilotc import Reconstructor, container
from pilotc.codec import enhanced_zigzag_map, pack_varints
from pilotc.container import MAGIC, VERSION, parse, serialize
from pilotc.errors import CorruptionError, FormatError, PilotCError, TruncationError
from pilotc.model import CompressedTrajectory, EncodedBlock, SubTrajectorySegment
from pilotc.params import PROFILES

GEO = PROFILES["geolife"]


def empty_model(dim=2, eps=10.0, **records):
    return hand_built(dim=dim, dt=1.0, eps=eps, eps_t=1.0, eps_p=5.0, chunk_bits=2, **records)


def test_empty_model_is_tiny():
    payload = serialize(empty_model(), GEO)
    assert payload[:4] == MAGIC
    assert len(payload) < 64
    assert parse(payload, GEO) == empty_model()


def test_single_block_zero_coeffs_payload_is_minimal():
    # per-dimension payload: one end delta plus one zero count, nothing else
    base = empty_model(dim=1)
    seg = SubTrajectorySegment(0, (7,), 11, ((EncodedBlock((), 3),),))
    with_seg = empty_model(dim=1, segments=(seg,))
    grew = len(serialize(with_seg, GEO)) - len(serialize(base, GEO))
    # t0 delta (3 bits) + p0 (2 chunks=6) + n_samples (2 chunks=6)
    # + end delta (2 chunks=6) + zero count (3) = 24 bits = 3 bytes
    assert grew == 3


def test_round_trip_field_for_field_and_bit_identical():
    rng = np.random.default_rng(42)
    for _ in range(200):
        model = random_model(rng)
        payload = serialize(model, GEO)
        back = parse(payload, GEO)
        assert back == model
        assert serialize(back, GEO) == payload


def test_every_strict_prefix_raises_truncation():
    rng = np.random.default_rng(7)
    model = random_model(rng, dim=2, eps=10.0)
    payload = serialize(model, GEO)
    for cut in range(len(payload)):
        with pytest.raises(TruncationError):
            parse(payload[:cut], GEO)


def test_bad_magic_is_format_error():
    payload = bytearray(serialize(empty_model(), GEO))
    payload[0] ^= 0xFF
    with pytest.raises(FormatError):
        parse(bytes(payload), GEO)


def test_bad_version_and_flags():
    payload = bytearray(serialize(empty_model(), GEO))
    payload[4] = 99
    with pytest.raises(FormatError):
        parse(bytes(payload), GEO)
    payload = bytearray(serialize(empty_model(), GEO))
    payload[6] = 1
    with pytest.raises(FormatError):
        parse(bytes(payload), GEO)


def test_trailing_garbage_rejected():
    payload = serialize(empty_model(), GEO)
    with pytest.raises(CorruptionError):
        parse(payload + b"\x00", GEO)


def test_corrupt_float_fields_rejected():
    payload = bytearray(serialize(empty_model(), GEO))
    payload[8:16] = struct.pack("<d", float("nan"))
    with pytest.raises(CorruptionError):
        parse(bytes(payload), GEO)


def test_serialize_validates_model_consistency():
    seg = SubTrajectorySegment(0, (7, 7), 11, (
        (EncodedBlock((), 0),),))  # one per-dim list for a 2-D model
    model = empty_model(segments=(seg,))
    with pytest.raises(ValueError):
        serialize(model, GEO)


def one_block_segment(q_coeffs):
    # eps=10 geolife: b_s=30, r_ret=1.1/sqrt(10)=0.348 -> K-1 = 10 coefficients max
    return SubTrajectorySegment(0, (0,), 31, ((EncodedBlock(q_coeffs, 0),),))


def one_block_model(q_coeffs):
    return empty_model(dim=1, segments=(one_block_segment(q_coeffs),))


def test_serialize_rejects_budget_violation():
    with pytest.raises(ValueError):
        serialize(one_block_model(tuple(range(1, 13))), GEO)


def test_serialize_rejects_trailing_zero_coefficient():
    with pytest.raises(ValueError):
        serialize(one_block_model((5, 0)), GEO)


def one_block_payload(q_coeffs):
    """The bytes of ``one_block_model(q_coeffs)``, written field by field so
    that no model check stands in the way."""
    fields = one_segment(31)[:-1] + [("u", len(q_coeffs))]
    return crafted(fields + [("s", c) for c in q_coeffs])


def test_one_block_payload_matches_serialize():
    assert one_block_payload((5, -2)) == serialize(one_block_model((5, -2)), GEO)


def test_parse_rejects_budget_violation():
    # 12 coefficients fit under the old c_f < m rule but not under the budget
    payload = one_block_payload(tuple(range(1, 13)))
    with pytest.raises(CorruptionError, match="budget"):
        parse(payload, GEO)


def test_parse_rejects_trailing_zero_coefficient():
    payload = one_block_payload((5, 0))
    with pytest.raises(CorruptionError, match="zero coefficient"):
        parse(payload, GEO)


@pytest.mark.parametrize("at", [3, 4, 6, 8],
                         ids=["t0 delta", "start value", "end delta", "coefficient"])
def test_parse_rejects_a_zero_code_in_a_signed_block_field(at):
    # at l = 2 parse maps the t0 delta's code as it chases, and gathers
    # the other fields as signed values after its chase
    fields = one_segment(31)[:-1] + [("u", 2), ("s", 5), ("s", -2)]
    fields[at] = ("u", 0)
    with pytest.raises(CorruptionError, match="zigzag"):
        parse(crafted(fields), GEO)


@pytest.mark.parametrize("chunk_bits", [1, 2])
@pytest.mark.parametrize("coeffs, match", [(tuple(range(1, 13)), "budget"),
                                           ((5, 0), "zero coefficient")])
def test_parse_reports_a_broken_block_rule_before_a_later_failure(coeffs, match, chunk_bits):
    # a segment with one block that breaks the block rule, then a second
    # segment that declares more blocks than the remaining bits can hold:
    # the first broken rule in field order decides the error
    fields = [("u", 2), ("u", 0), ("u", 0), ("s", 0), ("s", 0), ("u", 31),
              ("s", 0), ("u", len(coeffs)), *[("s", c) for c in coeffs],
              ("s", 1), ("s", 0), ("u", 10**6)]
    with pytest.raises(CorruptionError, match=match):
        parse(crafted(fields, chunk_bits=chunk_bits), GEO)


def test_serialize_rejects_negative_first_time_index():
    model = empty_model(dim=1, outliers=((-3, (0,)),))
    with pytest.raises(ValueError):
        serialize(model, GEO)


def one_d_segment(n_samples=31, n_blocks=1, p0_q=(0,)):
    return SubTrajectorySegment(0, p0_q, n_samples, ((EncodedBlock((), 0),) * n_blocks,))


# one model per rule serialize enforces, each breaking that rule alone
_BROKEN = {
    "dim 0": dict(dim=0),
    "dim 256": dict(dim=256),
    "chunk length 0": dict(chunk_bits=0),
    "chunk length 33": dict(chunk_bits=33),
    "dt zero": dict(dt=0.0),
    "eps negative": dict(eps=-1.0),
    "eps_t nan": dict(eps_t=float("nan")),
    "eps_p inf": dict(eps_p=float("inf")),
    "outlier width": dict(outliers=((1, (0, 0)),)),
    "correction width": dict(corrections=((1, ()),)),
    "p0_q width": dict(segments=(one_d_segment(p0_q=(0, 0)),)),
    "negative first outlier": dict(outliers=((-3, (0,)),)),
    "negative first correction": dict(corrections=((-1, (0,)),)),
    "repeated outlier index": dict(outliers=((4, (0,)), (4, (1,)))),
    "falling correction index": dict(
        corrections=((4, (0,)), (2, (0,)))),
    "one sample": dict(segments=(one_d_segment(n_samples=1),)),
    "block count": dict(segments=(one_d_segment(n_blocks=2),)),
    "over budget": dict(segments=(one_block_segment(tuple(range(1, 12))),)),
    "trailing zero": dict(segments=(one_block_segment((5, 0)),)),
    # signed fields whose enhanced-zigzag code would reach 2**64
    "outlier at -2**63": dict(outliers=((0, (-2**63,)),)),
    "outlier step of -2**63": dict(
        outliers=((0, (2**62,)), (1, (-2**62,)))),
    "outlier step beyond int64": dict(
        outliers=((0, (3 * 2**61,)), (1, (-3 * 2**61,)))),
    "end delta of -2**63": dict(
        segments=(SubTrajectorySegment(0, (0,), 31, ((EncodedBlock((), -2**63),),)),)),
}


@pytest.mark.parametrize("broken", _BROKEN.values(), ids=_BROKEN.keys())
def test_serialize_enforces_every_model_rule(broken):
    fields = dict(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2)
    valid = hand_built(**fields, segments=(one_d_segment(),))
    assert parse(serialize(valid, GEO), GEO) == valid
    with pytest.raises(ValueError):
        serialize(hand_built(**{**fields, **broken}), GEO)


@pytest.mark.parametrize("entries", ["outliers", "corrections"])
def test_parse_rejects_repeated_entry_time_index(entries):
    # counts, then two entries of time-index deltas 5 and 0, one coordinate each
    counts = [("u", 0), ("u", 2), ("u", 0)] if entries == "outliers" else [
        ("u", 0), ("u", 0), ("u", 2)]
    payload = crafted(counts + [("u", 5), ("s", 1), ("u", 0), ("s", 2)])
    with pytest.raises(CorruptionError, match="strictly increasing"):
        parse(payload, GEO)


def test_serialize_rejects_segment_time_out_of_float_range():
    # the index is small, but its time 1000 * eps_t is inf for eps_t = 1e306
    seg = SubTrajectorySegment(1000, (0,), 31, ((EncodedBlock((), 0),),))
    model = hand_built(dim=1, dt=1.0, eps=10.0, eps_t=1e306, eps_p=5.0,
                       chunk_bits=2, segments=(seg,))
    with pytest.raises(ValueError, match="out of range"):
        serialize(model, GEO)


def test_segments_must_start_in_time_order():
    # a reader finds segments by a binary search over their starts, so each
    # segment starts after the previous one; their grid spans may overlap
    blocks = ((EncodedBlock((), 0),),)

    def model(*starts):  # 11 samples span 1000 time indices at dt 1, eps_t 0.01
        return hand_built(
            dim=1, dt=1.0, eps=10.0, eps_t=0.01, eps_p=5.0, chunk_bits=2,
            segments=[SubTrajectorySegment(t0, (0,), 11, blocks) for t0 in starts])

    def segment_fields(t0_delta):
        return [("s", t0_delta), ("s", 0), ("u", 11), ("s", 0), ("u", 0)]

    for starts in ((0, 1000), (0, 1)):
        assert parse(serialize(model(*starts), GEO), GEO) == model(*starts)
    for a, b in ((1000, 0), (1000, 1000)):
        with pytest.raises(ValueError, match="previous segment"):
            serialize(model(a, b), GEO)
        with pytest.raises(CorruptionError, match="previous segment"):
            Reconstructor(model(a, b), GEO)
        # the bytes of a writer without the rule: each t0 is a delta from the
        # previous segment's grid end
        payload = crafted([("u", 2), ("u", 0), ("u", 0)] + segment_fields(a)
                          + segment_fields(b - (a + 1000)), eps_t=0.01)
        with pytest.raises(CorruptionError, match="previous segment"):
            parse(payload, GEO)


def test_parse_needs_matching_constants():
    # same bytes, different block-size constants: either a clean error or a
    # structurally different model, never silence plus equality
    seed = 3
    model = random_model(np.random.default_rng(seed), dim=2, eps=50.0)
    while not model.segments:
        seed += 1
        model = random_model(np.random.default_rng(seed), dim=2, eps=50.0)
    payload = serialize(model, GEO)
    other = PROFILES["nuplan"]
    try:
        back = parse(payload, other)
        assert back != model
    except (CorruptionError, TruncationError):
        pass


def crafted(fields, dt=1.0, eps=10.0, chunk_bits=2, dim=1, eps_t=1.0, eps_p=5.0):
    """A container with the given header and body fields, where each field
    is ("u", value) or ("s", value) for an unsigned or signed one."""
    codes = [enhanced_zigzag_map(v) if kind == "s" else v for kind, v in fields]
    return (MAGIC + bytes((VERSION, dim, 0, chunk_bits))
            + struct.pack("<dddd", dt, eps, eps_t, eps_p)
            + pack_varints(codes, [kind == "s" for kind, _ in fields], chunk_bits))


def one_segment(n_samples):
    # counts (1 segment, no outliers or corrections), t0 delta, p0, sample
    # count, then one block: end delta and an empty coefficient list
    return [("u", 1), ("u", 0), ("u", 0), ("s", 0), ("s", 0), ("u", n_samples),
            ("s", 0), ("u", 0)]


def test_parse_rejects_more_blocks_than_bits_before_allocating():
    valid = crafted(one_segment(11))
    assert serialize(parse(valid, GEO), GEO) == valid
    # 2**62 samples at b_s = 30 would allocate ~1.5e17 block lengths
    payload = crafted(one_segment(2**62))
    with pytest.raises(TruncationError, match="blocks"):
        parse(payload, GEO)


def test_parse_maps_segment_end_overflow_to_corruption():
    # (n_samples - 1) * dt / eps_t is inf for dt = 1e308
    payload = crafted(one_segment(3), dt=1e308)
    with pytest.raises(CorruptionError, match="out of range"):
        parse(payload, GEO)
    # the index fits, but its time 2 * eps_t is inf for eps_t = 1e308
    fields = one_segment(3)
    fields[3] = ("s", 2)
    with pytest.raises(CorruptionError, match="out of range"):
        parse(crafted(fields, eps_t=1e308), GEO)
    # the second of two 2-sample segments starts at the first one's end,
    # about 1e308, so its own end index cannot be converted to a float
    fields = [("u", 2), ("u", 0), ("u", 0)] + [("s", 0), ("s", 0), ("u", 2), ("s", 0), ("u", 0)] * 2
    with pytest.raises(CorruptionError, match="out of range"):
        parse(crafted(fields, dt=1e308), GEO)
    blocks = ((EncodedBlock(()),),)
    model = hand_built(dim=1, dt=1e308, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
                       segments=[SubTrajectorySegment(t0, (0,), 2, blocks) for t0 in (0, 10**308)])
    with pytest.raises(ValueError, match="out of range"):
        serialize(model, GEO)


def test_sample_count_beyond_int64_is_rejected_on_both_sides():
    # b_s = 9e18 at eps = 1.8e19 makes it two blocks, so the bits suffice
    payload = crafted(one_segment(2**63 + 10) + [("s", 0), ("u", 0)],
                      eps=1.8e19, eps_p=9e18, dt=1e-300)
    assert len(payload) == 56
    with pytest.raises(CorruptionError, match="sample count"):
        parse(payload, GEO)
    blocks = ((EncodedBlock(()), EncodedBlock(())),)
    model = hand_built(dim=1, dt=1e-300, eps=1.8e19, eps_t=1.0, eps_p=9e18, chunk_bits=2,
                       segments=(SubTrajectorySegment(0, (0,), 2**63, blocks),))
    with pytest.raises(ValueError, match="sample count"):
        serialize(model, GEO)


ENTRIES_BEYOND_INT64 = {
    # the three counts, then per entry a time step and one value (dim 1);
    # outlier coordinates chain, so the first case's second one is 2**63
    "outlier coordinate": [("u", 0), ("u", 2), ("u", 0),
                           ("u", 0), ("s", 2**62), ("u", 1), ("s", 2**62)],
    "outlier time index": [("u", 0), ("u", 2), ("u", 0),
                           ("u", 2**63), ("s", 0), ("u", 2**63), ("s", 0)],
    "correction time index": [("u", 0), ("u", 0), ("u", 2),
                              ("u", 2**63), ("s", 0), ("u", 2**63), ("s", 0)],
}


@pytest.mark.parametrize("fields", ENTRIES_BEYOND_INT64.values(), ids=ENTRIES_BEYOND_INT64)
def test_parse_rejects_entries_beyond_int64(fields):
    # a few bytes each; Reconstructor's int64 entry tables cannot hold them
    with pytest.raises(CorruptionError, match="outside int64"):
        parse(crafted(fields), GEO)


# the three counts, then per entry a time step and one value (dim 1)
ENTRY_REGION = {
    "later step of 0": ([("u", 0), ("u", 0), ("u", 2), ("u", 5), ("s", 1), ("u", 0), ("s", 2)],
                        CorruptionError),
    "time index sum at 2**63": ([("u", 0), ("u", 0), ("u", 2),
                                 ("u", 2**62), ("s", 1), ("u", 2**62), ("s", 2)],
                                CorruptionError),
    "outlier coordinates leave int64": ([("u", 0), ("u", 3), ("u", 0), ("u", 0), ("s", 5),
                                         ("u", 1), ("s", 2**62), ("u", 1), ("s", 2**62)],
                                        CorruptionError),
    "truncated inside the entries": ([("u", 0), ("u", 1), ("u", 2), ("u", 3), ("s", 2**40),
                                      ("u", 4), ("s", -7), ("u", 9), ("s", 2**50)],
                                     TruncationError),
    # sums past 2**62, which the columnar path leaves to the walk
    "time index sum below 2**63": ([("u", 0), ("u", 0), ("u", 2),
                                    ("u", 2**62), ("s", 1), ("u", 2**61), ("s", 2)], None),
    "outlier coordinates near int64": ([("u", 0), ("u", 2), ("u", 0), ("u", 0),
                                        ("s", 2**62), ("u", 1), ("s", 2**62 - 1)], None),
}


@pytest.mark.parametrize("fields, error", ENTRY_REGION.values(), ids=ENTRY_REGION)
def test_parse_entry_region_agrees_at_every_chunk_length(fields, error, monkeypatch):
    # the columnar path gathers the entries as arrays; each case must give
    # the same outcome at l = 1, through it at l = 2 and 3, and through the
    # walk at l = 2 and 3
    def outcome(chunk_bits):
        payload = crafted(fields, chunk_bits=chunk_bits)
        if error is TruncationError:
            payload = payload[:-3]
        return parse_outcome(payload)

    outcomes = [outcome(l) for l in (1, 2, 3)]
    with monkeypatch.context() as m:
        m.setattr(container, "_chase", lambda *args: 1 / 0)
        outcomes += [outcome(l) for l in (2, 3)]
    if error is None:
        assert all(isinstance(o, CompressedTrajectory) for o in outcomes), outcomes
        first = outcomes[0]
        assert all((o.outliers, o.corrections) == (first.outliers, first.corrections)
                   for o in outcomes)
    else:
        assert outcomes == [error] * 5


@pytest.mark.parametrize("chunk_bits", [2, 3])
def test_parse_rejects_a_zero_code_in_an_entry_value(chunk_bits, monkeypatch):
    # at l >= 2 a signed field can hold the code 0, which no value maps to;
    # at l = 1 its bits read as another code
    fields = [("u", 0), ("u", 1), ("u", 1), ("u", 3), ("s", 4), ("u", 2), ("u", 0)]
    payload = crafted(fields, chunk_bits=chunk_bits)
    with pytest.raises(CorruptionError, match="zigzag"):
        parse(payload, GEO)
    with monkeypatch.context() as m:
        m.setattr(container, "_chase", lambda *args: 1 / 0)
        with pytest.raises(CorruptionError, match="zigzag"):
            parse(payload, GEO)


_BEYOND_INT64 = {
    "outlier time index 2**63": dict(outliers=((2**63, (0,)),)),
    "outlier coordinate 2**63": dict(outliers=((0, (2**63,)),)),
    "outlier coordinate -2**63 - 1": dict(outliers=((0, (-2**63 - 1,)),)),
    "correction time index 2**64": dict(corrections=((5, (0,)), (2**64, (0,)))),
    "correction of 2**63": dict(corrections=((0, (2**63,)),)),
    "coefficient of 2**63": dict(segments=(one_block_segment((2**63,)),)),
    "p0_q of 2**63": dict(segments=(one_d_segment(p0_q=(2**63,)),)),
}


@pytest.mark.parametrize("records", _BEYOND_INT64.values(), ids=_BEYOND_INT64)
def test_no_model_holds_a_value_beyond_int64(records):
    # a model's columns are int64, so records beyond it cannot become one
    with pytest.raises(OverflowError):
        empty_model(dim=1, **records)


def test_entries_at_the_int64_limits_round_trip():
    fits = empty_model(dim=1, outliers=((0, (-2**62,)), (2**63 - 1, (-2**63,))))
    assert parse(serialize(fits, GEO), GEO) == fits


def test_parse_maps_block_size_overflow_to_corruption():
    # b * eps + c is inf for nuplan's b = 20 at eps = 1e308
    payload = crafted(one_segment(3), eps=1e308)
    with pytest.raises(CorruptionError, match="out of range"):
        parse(payload, PROFILES["nuplan"])


def flips_and_truncations(payload):
    """Every strict prefix and every single-bit flip of ``payload``."""
    cases = [payload[:cut] for cut in range(len(payload))]
    for bit in range(8 * len(payload)):
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        cases.append(bytes(flipped))
    return cases


def parse_outcome(case):
    try:
        return parse(case, GEO)
    except PilotCError as exc:
        return type(exc)


@pytest.mark.parametrize("seed, chunk_bits", [(s, l) for s in (36, 5) for l in (1, 2)])
def test_every_parsed_flip_round_trips(seed, chunk_bits):
    # parse and serialize apply the same rules, so whatever parse accepts,
    # serialize writes back, and the bytes parse to the same model
    model = random_model(np.random.default_rng(seed), dim=2, eps=50.0, chunk_bits=chunk_bits)
    for case in flips_and_truncations(serialize(model, GEO)):
        back = parse_outcome(case)
        if isinstance(back, CompressedTrajectory):
            assert parse(serialize(back, GEO), GEO) == back


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_query_before_a_tiny_dt_segment_is_warning_free(dt):
    # a query 0.1 before the start, inside the start tolerance, lies
    # -0.1 / dt samples into the segment: beyond int64, or beyond float64
    fields = one_segment(3)
    fields[3] = ("s", 5)  # the segment starts at time 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = Reconstructor(parse(crafted(fields, dt=dt), GEO), GEO)
        assert rec.query([4.9]).tolist() == [[0.0]]


def test_reach_beyond_float64_is_warning_free():
    # a segment's reach, its end plus a tolerance of about eps_t / 2, can
    # overflow float64 even though its start and end time are finite
    fields = one_segment(2)
    fields[3] = ("s", 1)  # the segment starts at time index 1
    payload = crafted(fields, eps_t=1.7976931348623157e308)
    assert len(payload) == 43
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = Reconstructor(parse(payload, GEO), GEO)
        assert rec.query([1.7976931348623157e308]).tolist() == [[0.0]]


@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 4, 7, 8, 16, 32])
def test_columnar_parse_matches_per_field_reader(chunk_bits, monkeypatch):
    # the library's reader (the table reader at l = 1, the columnar one
    # above) must give the same model, or the same error class, as the
    # per-field reference reader on every damaged copy of two containers
    for seed in (36, 5):
        model = random_model(np.random.default_rng(seed), dim=2, eps=50.0,
                             chunk_bits=chunk_bits)
        payload = serialize(model, GEO)
        cases = [payload, *flips_and_truncations(payload)]
        columnar = [parse_outcome(case) for case in cases]
        with monkeypatch.context() as m:
            m.setattr(container, "varint_reader", VarintReader)
            per_field = [parse_outcome(case) for case in cases]
        assert columnar[0] == model
        assert columnar == per_field


def test_every_valid_container_parses_through_the_chase(monkeypatch):
    # parse falls back to the field walk whenever the chase raises, so a
    # fault in the chase would only slow parse down; no valid container at
    # l >= 2 may take the walk (entry sums near the int64 limit would, by
    # design, and none of these holds one)
    walks = []
    walk = container._walk

    def counting(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(container, "_walk", counting)
    parse(serialize(random_model(np.random.default_rng(0), chunk_bits=1), GEO), GEO)
    assert len(walks) == 1  # the spy sees the walk that l = 1 always takes
    walks.clear()
    parsed = 0
    for chunk_bits in (2, 3, 5, 8, 16):
        for seed in range(30):
            model = random_model(np.random.default_rng(seed), chunk_bits=chunk_bits)
            assert parse(serialize(model, GEO), GEO) == model
            parsed += 1
    for name, kind, chunk_bits in itertools.product(_PROFILES, _KINDS, _CHUNK_BITS):
        if chunk_bits >= 2:
            parse(_container(name, kind, chunk_bits), PROFILES[name])
            parsed += 1
    assert parsed == 182 and walks == []


# Run in a child process that caps its own address space 512 MiB above what
# the imports mapped, so a huge allocation fails fast; the body prints, as
# its last line, a JSON list of the exceptions that escaped parse, or exits
# nonzero
_CAPPED = """
import json, resource, sys
sys.path[:0] = {paths!r}
from model_gen import random_model
import numpy as np
from pilotc import PROFILES, parse, serialize
from pilotc.errors import PilotCError

with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (512 << 20),) * 2)
geo = PROFILES["geolife"]
"""


def run_capped(body):
    pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("needs /proc/self/statm to size the address-space cap")
    paths = [str(Path(pilotc.__file__).parents[1]), str(Path(__file__).parent)]
    proc = subprocess.run([sys.executable, "-c", _CAPPED.format(paths=paths) + body],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


_FLIP_FUZZ = """
import warnings
from pilotc import Reconstructor
from test_container import flips_and_truncations
warnings.simplefilter("error")
escapes = []
# seed 36 gives two segments, outliers and corrections in under 200 bytes
for seed, chunk_bits in [(s, l) for s in (36, 5) for l in (1, 2)]:
    model = random_model(np.random.default_rng(seed), dim=2, eps=50.0, chunk_bits=chunk_bits)
    for case in flips_and_truncations(serialize(model, geo)):
        try:
            back = parse(case, geo)
            times = [t0 * back.eps_t for t0 in back.segments.t0_index]
            times += [t * back.eps_t for t in back.outliers.t_index.tolist()]
            rec = Reconstructor(back, geo)
            for t in times:
                rec.query([t])
        except PilotCError:
            pass
        except Exception as exc:
            escapes.append(f"seed {seed}, l={chunk_bits}, {len(case)} bytes: {exc!r}")
print(json.dumps(escapes[:10]))
"""


def test_parse_fuzz_bit_flips_and_truncations():
    # every truncation and every single-bit flip of two small containers at
    # l = 1 and at l = 2 must parse or raise a PilotCError, and so must
    # building a Reconstructor on what parses and querying each segment start
    # and outlier time; numpy warnings count as escapes
    assert run_capped(_FLIP_FUZZ) == []


_HEADER_FUZZ = """
from hypothesis import given, settings, strategies as st
from test_container import crafted

special = st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e-308, 1e308, -1e308,
                           1.7976931348623157e308, float("nan"), float("inf"),
                           float("-inf"), 1.0, 10.0])
positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
# mostly positive and finite, so that most headers pass and the body is read
header_float = st.one_of(positive, positive, positive, special, st.floats())
count = st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1))
field = st.one_of(st.tuples(st.just("u"), count),
                  st.tuples(st.just("s"), st.integers(-(2**63 - 1), 2**63 - 1)))

@settings(max_examples=400, deadline=None, database=None)
@given(st.integers(1, 3), st.sampled_from([1, 2]), st.lists(header_float, min_size=4,
       max_size=4), st.lists(count, min_size=3, max_size=3), st.lists(field, max_size=40),
       st.binary(max_size=16))
def fuzz(dim, chunk_bits, floats, counts, fields, tail):
    dt, eps, eps_t, eps_p = floats
    payload = crafted([("u", c) for c in counts] + fields, dt=dt, eps=eps,
                      chunk_bits=chunk_bits, dim=dim, eps_t=eps_t, eps_p=eps_p) + tail
    try:
        parse(payload, geo)
    except PilotCError:
        pass

fuzz()
print(json.dumps([]))
"""


def test_parse_fuzz_header_floats_and_counts():
    # header floats from the edges of float64 and random leading counts, at
    # l = 1 and l = 2: parse returns a model or raises a PilotCError
    assert run_capped(_HEADER_FUZZ) == []


_HUGE_BLOCKS = """
from pilotc import Reconstructor, compress, synthetic_trajectory
from test_container import crafted, one_segment
answers = []
for eps in (1e7, 1e12):
    rec = Reconstructor(parse(crafted(one_segment(3), eps=eps, eps_p=eps / 2), geo), geo)
    answers.append(rec.query([0.0, 1.5, 2.0]).tolist())
traj = synthetic_trajectory(300, seed=1)
rec = Reconstructor(parse(serialize(compress(traj, geo.params(1e7)), geo), geo), geo)
answers.append(bool(np.linalg.norm(rec.query(traj.times) - traj.points, axis=1).max() <= 1e7))
print(json.dumps(answers))
"""


_BIG_L1_BODY = """
from test_container import crafted
# 70,000 corrections of one 127-bit signed field each: a 1.1 MB body at l = 1
n = 70_000
fields = [("u", 0), ("u", 0), ("u", n)] + [("u", 1), ("s", -(2**62))] * n
payload = crafted(fields, chunk_bits=1)
try:
    back = parse(payload, geo)
    answer = [len(payload), len(back.corrections), int(back.corrections.values[-1, 0])]
except PilotCError as exc:
    answer = [len(payload), type(exc).__name__]
print(json.dumps(answer))
"""


def test_table_reader_memory_is_bounded_by_its_window():
    # the l = 1 reader tabulates one window of start positions at a time;
    # tables over the whole body, a list entry and a few uint64s per bit,
    # would not fit under the cap
    size, n_corrections, last = run_capped(_BIG_L1_BODY)
    assert size >= 1 << 20
    assert (n_corrections, last) == (70_000, -(2**62))


_BIG_L2_BODY = """
from test_container import crafted
# 90,000 corrections of a 64-bit signed field each: a 1.1 MB body at l = 2
n = 90_000
fields = [("u", 0), ("u", 0), ("u", n)] + [("u", 1), ("s", -(2**62))] * n
payload = crafted(fields, chunk_bits=2)
try:
    back = parse(payload, geo)
    answer = [len(payload), len(back.corrections), int(back.corrections.values[-1, 0])]
except PilotCError as exc:
    answer = [len(payload), type(exc).__name__]
print(json.dumps(answer))
"""


def test_columnar_reader_memory_is_bounded_by_the_body():
    # the l >= 2 reader splits the whole body into codes when it is built;
    # its arrays, a few bytes per chunk and per field, fit under the cap
    size, n_corrections, last = run_capped(_BIG_L2_BODY)
    assert size >= 1 << 20
    assert (n_corrections, last) == (90_000, -(2**62))


def test_huge_block_size_builds_no_full_block_batch():
    # a segment shorter than b_s is one tail block: at eps = 1e7 (b_s = 5e6)
    # and 1e12 (5e11) neither side may build the empty batch of full blocks,
    # whose cosine basis alone would take 64.8 GiB and 3.64 TiB
    assert run_capped(_HUGE_BLOCKS) == [[[0.0], [0.0], [0.0]]] * 2 + [True]
