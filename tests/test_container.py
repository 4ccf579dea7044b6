import numpy as np
import pytest
from model_gen import random_model

from pilotc import container
from pilotc.container import (
    MAGIC,
    pack_archive,
    parse,
    serialize,
    unpack_archive,
)
from pilotc.errors import CorruptionError, FormatError, TruncationError
from pilotc.model import (
    CompressedTrajectory,
    EncodedBlock,
    OutlierEntry,
    SubTrajectorySegment,
)
from pilotc.params import PROFILES

GEO = PROFILES["geolife"]


def empty_model(dim=2, eps=10.0):
    return CompressedTrajectory(
        dim=dim, dt=1.0, eps=eps, eps_t=1.0, eps_p=5.0, chunk_bits=2)


def test_empty_model_is_tiny():
    payload = serialize(empty_model(), GEO)
    assert payload[:4] == MAGIC
    assert len(payload) < 64
    assert parse(payload, GEO) == empty_model()


def test_single_block_zero_coeffs_payload_is_minimal():
    # per-dimension payload: one end delta plus one zero count, nothing else
    base = empty_model(dim=1)
    seg = SubTrajectorySegment(0, (7,), 11, ((EncodedBlock((), 3),),))
    with_seg = CompressedTrajectory(
        dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
        segments=(seg,))
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
    import struct
    payload = bytearray(serialize(empty_model(), GEO))
    payload[8:16] = struct.pack("<d", float("nan"))
    with pytest.raises(CorruptionError):
        parse(bytes(payload), GEO)


def test_serialize_validates_model_consistency():
    seg = SubTrajectorySegment(0, (7, 7), 11, (
        (EncodedBlock((), 0),),))  # one per-dim list for a 2-D model
    model = CompressedTrajectory(
        dim=2, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
        segments=(seg,))
    with pytest.raises(ValueError):
        serialize(model, GEO)


def one_block_model(q_coeffs):
    # eps=10 geolife: b_s=30, r_ret=1.1/sqrt(10)=0.348 -> K-1 = 10 coefficients max
    seg = SubTrajectorySegment(0, (0,), 31, ((EncodedBlock(q_coeffs, 0),),))
    return CompressedTrajectory(
        dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
        segments=(seg,))


def unchecked_bytes(model, monkeypatch):
    """The bytes serialize would write if it skipped its model checks."""
    monkeypatch.setattr(container, "_validate_model", lambda *args: None)
    return serialize(model, GEO)


def test_serialize_rejects_budget_violation():
    with pytest.raises(ValueError):
        serialize(one_block_model(tuple(range(1, 13))), GEO)


def test_serialize_rejects_trailing_zero_coefficient():
    with pytest.raises(ValueError):
        serialize(one_block_model((5, 0)), GEO)


def test_parse_rejects_budget_violation(monkeypatch):
    # 12 coefficients fit under the old c_f < m rule but not under the budget
    payload = unchecked_bytes(one_block_model(tuple(range(1, 13))), monkeypatch)
    with pytest.raises(CorruptionError, match="budget"):
        parse(payload, GEO)


def test_parse_rejects_trailing_zero_coefficient(monkeypatch):
    payload = unchecked_bytes(one_block_model((5, 0)), monkeypatch)
    with pytest.raises(CorruptionError, match="zero coefficient"):
        parse(payload, GEO)


def test_serialize_rejects_negative_first_time_index():
    model = CompressedTrajectory(
        dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
        outliers=(OutlierEntry(-3, (0,)),))
    with pytest.raises(ValueError):
        serialize(model, GEO)


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


def test_archive_round_trip():
    rng = np.random.default_rng(11)
    payloads = [serialize(random_model(rng), GEO) for _ in range(5)]
    packed = pack_archive(payloads)
    assert unpack_archive(packed) == payloads
    assert unpack_archive(b"") == []
    with pytest.raises(TruncationError):
        unpack_archive(packed[:-1])
