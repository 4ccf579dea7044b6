import json
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from model_gen import random_model

import pilotc
from pilotc import Reconstructor, container
from pilotc.codec import VarintReader, enhanced_zigzag_map, pack_varints
from pilotc.container import MAGIC, VERSION, parse, serialize
from pilotc.errors import CorruptionError, FormatError, PilotCError, TruncationError
from pilotc.model import (
    CompressedTrajectory,
    CorrectionEntry,
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


def test_serialize_rejects_negative_first_time_index():
    model = CompressedTrajectory(
        dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2,
        outliers=(OutlierEntry(-3, (0,)),))
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
    "outlier width": dict(outliers=(OutlierEntry(1, (0, 0)),)),
    "correction width": dict(corrections=(CorrectionEntry(1, ()),)),
    "p0_q width": dict(segments=(one_d_segment(p0_q=(0, 0)),)),
    "negative first outlier": dict(outliers=(OutlierEntry(-3, (0,)),)),
    "negative first correction": dict(corrections=(CorrectionEntry(-1, (0,)),)),
    "repeated outlier index": dict(outliers=(OutlierEntry(4, (0,)), OutlierEntry(4, (1,)))),
    "falling correction index": dict(
        corrections=(CorrectionEntry(4, (0,)), CorrectionEntry(2, (0,)))),
    "one sample": dict(segments=(one_d_segment(n_samples=1),)),
    "block count": dict(segments=(one_d_segment(n_blocks=2),)),
    "over budget": dict(segments=one_block_model(tuple(range(1, 12))).segments),
    "trailing zero": dict(segments=one_block_model((5, 0)).segments),
}


@pytest.mark.parametrize("broken", _BROKEN.values(), ids=_BROKEN.keys())
def test_serialize_enforces_every_model_rule(broken):
    fields = dict(dim=1, dt=1.0, eps=10.0, eps_t=1.0, eps_p=5.0, chunk_bits=2)
    valid = CompressedTrajectory(**fields, segments=(one_d_segment(),))
    assert parse(serialize(valid, GEO), GEO) == valid
    with pytest.raises(ValueError):
        serialize(CompressedTrajectory(**{**fields, **broken}), GEO)


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
    model = CompressedTrajectory(dim=1, dt=1.0, eps=10.0, eps_t=1e306, eps_p=5.0,
                                 chunk_bits=2, segments=(seg,))
    with pytest.raises(ValueError, match="out of range"):
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


@pytest.mark.parametrize("chunk_bits", [2, 3, 4, 7, 8, 16, 32])
def test_columnar_parse_matches_per_field_reader(chunk_bits, monkeypatch):
    # the columnar reader must give the same model, or the same error class,
    # as the per-field reader on every damaged copy of two containers
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
            times = [seg.t0_index * back.eps_t for seg in back.segments]
            times += [e.t_index * back.eps_t for e in back.outliers]
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
