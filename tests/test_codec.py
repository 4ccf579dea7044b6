import warnings
from itertools import groupby

import numpy as np
import pytest
from codec_reference import VarintReader, enhanced_zigzag_unmap, round_index_ref
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotc import codec
from pilotc.codec import (
    ColumnarReader,
    TableReader,
    dequantize_array,
    enhanced_zigzag_map,
    pack_varints,
    quantize_array,
    round_half_away,
    time_index_array,
    varint_reader,
)
from pilotc.errors import CorruptionError, TruncationError


def bits_of(data: bytes) -> str:
    return "".join(f"{b:08b}" for b in data)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_reference_value():
    assert quantize_array(3.824, 0.03) == 64
    assert dequantize_array(64, 0.03) == pytest.approx(3.84)
    assert abs(3.824 - dequantize_array(quantize_array(3.824, 0.03), 0.03)) <= 0.03


def test_quantize_zero_and_sign_symmetry():
    assert quantize_array(0.0, 0.5) == 0
    assert quantize_array(-3.824, 0.03) == -64
    assert dequantize_array(-64, 0.03) == pytest.approx(-3.84)
    assert dequantize_array(0, 123.0) == 0.0


def test_quantize_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            quantize_array(bad, 1.0)
    with pytest.raises(ValueError):
        quantize_array(1.0, 0.0)
    with pytest.raises(ValueError):
        quantize_array([1.0, float("nan")], 1.0)


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1e4, 1e4, 5000)
    step = 0.37
    qa = quantize_array(xs, step)
    # the scalar rule: nearest multiple of 2*step, ties away from zero
    assert [round_half_away(float(x) / (2.0 * step)) for x in xs] == qa.tolist()
    err = np.abs(xs - dequantize_array(qa, step))
    assert err.max() <= step


@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3))
def test_quantize_error_bound_property(x, step):
    # allowance for division rounding when x/(2*step) lands on a tie
    assert abs(x - dequantize_array(quantize_array(x, step), step)) <= step * (1.0 + 1e-6)


def test_time_index_uses_single_step():
    # time quantization uses step eps_t, not 2*eps_t: error at most eps_t/2
    assert time_index_array(10.26, 0.1) == 103
    assert time_index_array(10.26, 0.1) * 0.1 == pytest.approx(10.3)
    assert abs(10.26 - time_index_array(10.26, 0.1) * 0.1) <= 0.05 + 1e-12


@pytest.mark.parametrize("unit", [1.0, 0.02, 2.0 * 0.37, 1e-3])
def test_round_index_is_bitwise_the_reference_formula(unit):
    # ties at k + 1/2 units, signed zeros, random values, and values whose
    # index lies just under the exact float64 integer range, in every shape
    limit = float(1 << 53)
    k = np.arange(-6, 7)
    near_limit = [sign * np.nextafter(m * unit, 0.0) for m in (limit - 2, limit - 4, 2.0**52)
                  for sign in (1, -1)]
    near_limit = [v for v in near_limit if abs(v) / unit + 0.5 < limit]
    assert len(near_limit) >= 4
    rng = np.random.default_rng(0)
    values = np.concatenate([[0.0, -0.0], (k + 0.5) * unit, -(k + 0.5) * unit, k * unit,
                             near_limit, rng.normal(0.0, 1e4, 200)])
    even = values[:values.size // 6 * 6]
    inputs = [values, even.reshape(-1, 2), values[::3], even.reshape(-1, 3)[:, 1:],
              np.array(values[5]), -0.0, 2.5 * unit, int(7), np.float64(-3.5 * unit)]
    for x in inputs:
        before = np.array(x, copy=True)
        got, want = codec._round_index(x, unit, "value"), round_index_ref(x, unit)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.int64
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.array(x).tobytes() == before.tobytes()  # the input is untouched
    assert type(time_index_array(1.26, 0.1)) is np.int64
    assert type(quantize_array(np.array(3.0), 0.5)) is np.int64


def test_time_index_rejects_a_bad_time_precision_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="time precision"):
                time_index_array([1.0, 2.0], bad)


def test_time_index_rejects_non_finite_and_huge_times_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                time_index_array([1.0, bad], 0.1)
        # the quotient overflows to inf before the range check sees it
        with pytest.raises(OverflowError):
            time_index_array(1e306, 1e-3)
        with pytest.raises(OverflowError):
            quantize_array([1e300], 1e-10)


# ---------------------------------------------------------------------------
# zigzag mapping
# ---------------------------------------------------------------------------

def test_enhanced_zigzag_reference_values():
    assert enhanced_zigzag_map(227) == 455
    assert enhanced_zigzag_map(0) == 1
    assert enhanced_zigzag_map(-1) == 2


def test_enhanced_zigzag_consecutive_pattern():
    assert [enhanced_zigzag_map(n) for n in (-2, -1, 0, 1, 2)] == [4, 2, 1, 3, 5]


def test_enhanced_zigzag_never_zero_and_bijective():
    seen = set()
    for n in range(-500, 501):
        u = enhanced_zigzag_map(n)
        assert u >= 1
        assert enhanced_zigzag_unmap(u) == n
        seen.add(u)
    assert seen == set(range(1, 1002))


def test_zigzag_inverse_and_errors():
    for n in (2**63 - 1, -(2**63 - 1)):
        assert enhanced_zigzag_unmap(enhanced_zigzag_map(n)) == n
    with pytest.raises(ValueError):
        enhanced_zigzag_unmap(0)
    with pytest.raises(OverflowError):
        enhanced_zigzag_map(1 << 63)
    with pytest.raises(OverflowError):
        enhanced_zigzag_map(-(1 << 63) - 1)


# ---------------------------------------------------------------------------
# varint writer and reader; the regular-expression reader of the tests is the
# reference, and each chunk-length-1 case also runs through the library's
# reader for that chunk length
# ---------------------------------------------------------------------------

def readers(l):
    return (VarintReader, varint_reader) if l == 1 else (VarintReader,)


def test_bitstream_byte_padding_is_zero():
    # 5 at l = 2: chunks 01 (flagged) and 01 (final), then two zero pad bits
    data = pack_varints([5], [False], 2)
    assert data == bytes([0b10100100])
    r = VarintReader(data, 2)
    assert r.unsigned() == 5
    assert r.remaining_bits == 2


def test_bitstream_exhaustion_raises_truncation():
    data = pack_varints([3], [False], 7)
    r = VarintReader(data, 7)
    assert r.unsigned() == 3
    with pytest.raises(TruncationError):
        r.unsigned()
    with pytest.raises(TruncationError):
        VarintReader(b"\x80", 7).unsigned()  # a flagged chunk, then nothing
    for reader in readers(1):
        r = reader(b"\x01", 1)
        assert [r.signed() for _ in range(7)] == [0] * 7  # bare final flags, implied 1
        with pytest.raises(TruncationError):
            r.signed()  # a flag 1 with its payload bit missing
        assert r.pos == 7


def test_bitstream_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        pack_varints([3, -1], [False, False], 7)
    with pytest.raises(OverflowError):
        pack_varints([1 << 64], [False], 7)
    for l in (0, 33):
        with pytest.raises(ValueError):
            pack_varints([1], [False], l)
        with pytest.raises(ValueError):
            VarintReader(b"\x00", l)
        with pytest.raises(ValueError):
            varint_reader(b"\x00", l)


def test_pack_varints_rejects_negative_integer_arrays():
    # a signed integer array would wrap a negative value into a 64-bit code;
    # it is refused as a list of the same values is
    for codes in ([3, -1], *(np.array([3, -1], dtype=t) for t in (np.int64, np.int32, np.int8))):
        with pytest.raises(ValueError, match="must be non-negative"):
            pack_varints(codes, [False, False], 2)
    # arrays of non-negative codes, signed or not, write what the list writes
    for t in (np.int64, np.int32, np.uint64):
        for l in (1, 2):
            assert (pack_varints(np.array([3, 0, 5], dtype=t), [False, False, True], l)
                    == pack_varints([3, 0, 5], [False, False, True], l))


_FIELD = st.one_of(
    st.tuples(st.just(False), st.integers(0, 2**64 - 1)),
    st.tuples(st.just(True), st.integers(-(2**63 - 1), 2**63 - 1)),
)


@given(st.lists(_FIELD, max_size=40), st.integers(1, 32))
def test_bitstream_mixed_round_trip(fields, l):
    # through the per-field reader and through the reader a container body
    # gets (the columnar one at l >= 2), field by field and in signed runs
    signed = [s for s, _ in fields]
    codes = [enhanced_zigzag_map(v) if s else v for s, v in fields]
    data = pack_varints(codes, signed, l)
    for reader in (VarintReader, varint_reader):
        r = reader(data, l)
        assert [r.signed() if s else r.unsigned() for s in signed] == [v for _, v in fields]
        assert r.remaining_bits < 8
        r = reader(data, l)
        values = []
        for s, run in groupby(signed):
            n = len(list(run))
            values.extend(r.signeds(n) if s else [r.unsigned() for _ in range(n)])
        assert values == [v for _, v in fields]
        assert r.remaining_bits < 8


def test_varint_227_bit_pattern():
    # 227 -> low chunk 1100011 (99) flagged, high chunk 0000001 final
    data = pack_varints([227], [False], 7)
    assert bits_of(data) == "11100011" + "00000001"
    assert VarintReader(data, 7).unsigned() == 227


def test_varint_zero_single_chunk():
    data = pack_varints([0], [False], 7)
    assert bits_of(data) == "00000000"
    assert VarintReader(data, 7).unsigned() == 0


def test_varint_455_omitted_final_bit():
    # 455 = 111000111, the enhanced zigzag code of 227; eight flagged 1-bit
    # chunks then a bare final flag, then seven zero pad bits
    data = pack_varints([455], [True], 1)
    assert bits_of(data) == "11" * 3 + "10" * 3 + "11" * 2 + "0" + "0" * 7
    for reader in readers(1):
        r = reader(data, 1)
        assert r.signed() == 227
        assert r.pos == 17


def test_varint_omission_preconditions():
    # a signed field holds an enhanced zigzag code, never 0
    for l in (1, 2):
        with pytest.raises(ValueError):
            pack_varints([0], [True], l)
    # only chunk length 1 omits the final payload bit
    assert pack_varints([5], [True], 2) == pack_varints([5], [False], 2)
    assert pack_varints([5], [True], 1) != pack_varints([5], [False], 1)


def test_varint_omitted_round_trip_dense():
    codes = range(1, 2**12)
    data = pack_varints(codes, [True] * len(codes), 1)
    for reader in readers(1):
        r = reader(data, 1)
        for u in codes:
            assert r.signed() == enhanced_zigzag_unmap(u)


def test_varint_bit_length_formula_and_monotonicity():
    for l in range(1, 9):
        prev = 0
        for u in (0, 1, 2, 3, 7, 8, 127, 128, 255, 1023, 2**16, 2**32 - 1):
            data = pack_varints([u], [False], l)
            for reader in readers(l):
                r = reader(data, l)
                assert r.unsigned() == u
                chunks = max(1, -(-u.bit_length() // l))
                assert r.pos == (l + 1) * chunks
                assert len(data) == -(-r.pos // 8)
                assert r.pos >= prev
            prev = r.pos


def test_varint_corrupt_unterminated_flags():
    for reader in readers(1):
        with pytest.raises(CorruptionError):
            reader(b"\xff" * 40, 1).unsigned()


def test_varint_code_beyond_64_bits_is_corrupt():
    # 64 // l continuation chunks are allowed, but no code reaches 2**64
    for l in (1, 7, 32):
        n_flagged = 64 // l
        bits = ("1" + "0" * l) * n_flagged + "0" + "1" * l
        bits += "0" * (-len(bits) % 8)
        data = int(bits, 2).to_bytes(len(bits) // 8, "big")
        for reader in readers(l):
            with pytest.raises(CorruptionError):
                reader(data, l).unsigned()
    for reader in readers(1):
        assert reader(pack_varints([2**64 - 1], [False], 1), 1).unsigned() == 2**64 - 1


def bits_to_bytes(bits: str) -> bytes:
    """Pack a bit string, filled up to a byte with 1 bits: every complete
    chunk the fill makes is flagged, so it never ends a field."""
    bits += "1" * (-len(bits) % 8)
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")


def read_outcome(reader, data, l, signed=False):
    try:
        r = reader(data, l)
        return r.signed() if signed else r.unsigned()
    except (CorruptionError, TruncationError) as exc:
        return type(exc)


@pytest.mark.parametrize("l", [1, 2, 4, 32])
def test_columnar_reader_64_bit_edges(l):
    # the library reader for each chunk length (the table reader at l = 1)
    # against the reference
    max_flagged = 64 // l
    flagged_zero = "1" + "0" * l

    def expect(data, outcome, signed=False):
        assert read_outcome(varint_reader, data, l, signed) == outcome
        assert read_outcome(VarintReader, data, l, signed) == outcome

    expect(pack_varints([2**64 - 1, 0], [False, False], l), 2**64 - 1)
    # a final chunk at bit 64: a nonzero payload reaches 2**64, a zero one adds nothing
    top = flagged_zero * max_flagged + "0"
    expect(bits_to_bytes(top + "0" * (l - 1) + "1" + "0" * (l + 1)), CorruptionError)
    expect(bits_to_bytes(top + "0" * l + "0" * (l + 1)), 0)
    # the most continuation chunks, then one more
    expect(bits_to_bytes(flagged_zero * (max_flagged + 1) + "0" * (l + 1)), CorruptionError)
    # an unterminated tail is truncated until it has too many flagged chunks
    for n in (0, 1, max_flagged - 1, max_flagged, max_flagged + 1):
        data = bits_to_bytes(flagged_zero * n)
        n_flagged = 8 * len(data) // (l + 1)
        expect(data, TruncationError if n_flagged <= max_flagged else CorruptionError)
    if l == 1:
        # a signed field's final payload bit 1 is implied: after 63 flagged
        # chunks it is bit 63 of the code 2**63, after 64 it reaches 2**64
        expect(bits_to_bytes(flagged_zero * 63 + "0"), -(2**62), signed=True)
        expect(bits_to_bytes(flagged_zero * 64 + "0"), CorruptionError, signed=True)
        # the same bits unsigned: the fill's first bit is the final payload
        expect(bits_to_bytes(flagged_zero * 63 + "0"), 2**63)


def test_columnar_reader_errors_are_lazy():
    # fields before a bad one read normally, a zero code fails only as a
    # signed field, and the reader stops in front of the bad field
    data = pack_varints([8, 0, 5], [False, False, False], 2)
    r = ColumnarReader(data, 2)
    assert r.signed() == -4
    assert r.unsigned() == 0
    r = ColumnarReader(data, 2)
    with pytest.raises(ValueError):
        r.signeds(3)
    assert r.pos == 6  # in front of the zero code, which reads as unsigned
    assert r.unsigned() == 0
    # a gather maps the codes alike, and fails on a zero code
    assert r.signed_values(np.array([0, 2])).tolist() == [-4, 2]
    with pytest.raises(LookupError):
        r.signed_values(np.array([0, 1]))
    # 8 is "100" "010" at l = 2; then more flagged chunks than any code has
    r = ColumnarReader(bits_to_bytes("100010" + "1" * 120), 2)
    assert r.signeds(1) == (-4,)
    with pytest.raises(CorruptionError):
        r.signeds(2)
    assert r.pos == 6
    # an unreadable field's error comes first, before a later zero code's
    r = ColumnarReader(bits_to_bytes("100010" + "101" * 33 + "000" + "000"), 2)
    with pytest.raises(CorruptionError, match="longer"):
        r.signeds(3)
    assert r.pos == 6
    with pytest.raises(LookupError):
        r.signed_values(np.array([1]))
    with pytest.raises(ValueError):
        ColumnarReader(b"\x00", 1)
    with pytest.raises(ValueError):
        TableReader(b"\x00", 2)


def signeds_outcome(reader, data, l, n):
    """What a run of n signed reads gives: the values or the error's class,
    and where the reader stands after it."""
    r = reader(data, l)
    try:
        return r.signeds(n), r.pos
    except (CorruptionError, TruncationError, ValueError) as exc:
        return type(exc), r.pos


@pytest.mark.parametrize("l", [1, 2, 3, 4, 32])
def test_reader_failure_matches_reference(l):
    # a bad field after good signed fields, inside one run of signed reads:
    # the library reader raises the reference's error and stops in front of
    # the bad field, as the reference does
    def signed_bits(values):
        data = pack_varints(enhanced_zigzag_map(values), [True] * len(values), l)
        r = VarintReader(data, l)
        r.signeds(len(values))
        return bits_of(data)[:r.pos]

    good = [5, -3, 0, 2**40, -(2**62)]
    head, after = signed_bits(good), signed_bits(good[:2])
    flagged_zero = "1" + "0" * l
    final_ones = "0" + ("1" * l if l > 1 else "")  # payload bits 64 and up
    bad_fields = {
        "too many flagged chunks": flagged_zero * (64 // l + 1) + "0" * (l + 1) + after,
        "code of 2**64 or more": flagged_zero * (64 // l) + final_ones + after,
        "truncated tail": flagged_zero,
    }
    for name, bad in bad_fields.items():
        data = bits_to_bytes(head + bad)
        for n in (len(good) + 1, len(good) + 3):
            expected = signeds_outcome(VarintReader, data, l, n)
            assert expected[0] in (CorruptionError, TruncationError), name
            assert expected[1] == len(head), name
            assert signeds_outcome(varint_reader, data, l, n) == expected, name
    if l > 1:
        # the code 0 is no enhanced zigzag code
        codes = list(enhanced_zigzag_map(good))
        data = pack_varints(codes + [0] + codes, [True] * len(good) + [False] * 6, l)
        for reader in (VarintReader, varint_reader):
            assert signeds_outcome(reader, data, l, len(good) + 2)[0] is ValueError


def field_outcomes(data, l):
    """Each field of the columnar reader's code list, read alone: its code
    or the error's class; then which fields the list holds as ``None``."""
    r = ColumnarReader(data, l)
    out = []
    for i in range(len(r.codes)):
        r.index = i
        try:
            out.append(r.unsigned())
        except (CorruptionError, TruncationError) as exc:
            out.append(type(exc))
    return out, [c is None for c in r.codes]


def field_outcomes_ref(data, l):
    """The same through the reference reader, started at each field's first
    bit: a field ends with every chunk whose flag is 0, and the tail after
    the last such chunk comes last."""
    bits, width = bits_of(data), l + 1
    starts = [0] + [width * (c + 1) for c in range(len(bits) // width) if bits[width * c] == "0"]
    out = []
    for start in starts:
        r = VarintReader(data, l)
        r.pos = start
        try:
            out.append(r.unsigned())
        except (CorruptionError, TruncationError) as exc:
            out.append(type(exc))
    return out, [isinstance(o, type) for o in out]


@pytest.mark.parametrize("l", [2, 3, 4, 5, 7, 8, 16, 31, 32])
def test_columnar_reader_matches_reference_field_by_field(l):
    # valid streams with the codes at each chunk count's edges, their cuts,
    # and random bodies dense enough in 1 bits to hold fields with too many
    # flagged chunks and codes of 2**64 or more
    rng = np.random.default_rng(l)
    edges = [0, 2**64 - 1] + [v for k in range(1, 64 // l + 1)
                              for v in (2**(l * k) - 1, 2**(l * k), 2**(l * k) + 1) if v < 2**64]
    bodies = []
    for _ in range(12):
        randoms = [int(v) >> int(rng.integers(64))
                   for v in rng.integers(0, 2**64 - 1, 8, dtype=np.uint64, endpoint=True)]
        codes = [(edges + randoms)[i] for i in rng.permutation(len(edges) + len(randoms))]
        data = pack_varints(codes, [False] * len(codes), l)
        assert field_outcomes(data, l)[0][:len(codes)] == codes
        bodies += [data, data[:int(rng.integers(len(data)))]]
    # the longest code below 2**64, the shortest code of as many chunks that
    # reaches 2**64, and one flagged chunk too many before a zero payload
    for n_flagged, top in ((64 // l, 2**(64 % l) - 1), (64 // l, 2**(64 % l)), (64 // l + 1, 0)):
        bits = ("1" + "0" * l) * n_flagged + "0" + format(top, f"0{l}b")
        bodies.append(bits_to_bytes(bits + "0" * (l + 1)))
    for p in (0.5, 0.9, 0.97):
        for _ in range(12):
            bits = rng.random(8 * int(rng.integers(1, 64))) < p
            bodies.append(np.packbits(bits).tobytes())
    for data in bodies:
        assert field_outcomes(data, l) == field_outcomes_ref(data, l)


@settings(max_examples=300)
@given(st.integers(-(2**31), 2**31 - 1), st.integers(1, 8))
def test_signed_varint_round_trip_property(n, l):
    data = pack_varints([abs(n), enhanced_zigzag_map(n)], [False, True], l)
    for reader in (VarintReader, varint_reader):
        r = reader(data, l)
        assert r.unsigned() == abs(n)
        assert r.signed() == n


@pytest.mark.parametrize("window", [16, codec._WINDOW])
def test_table_reader_across_windows(window, monkeypatch):
    # the table reader builds its tables one window of start positions at a
    # time; a body of more than three windows, read field by field and in
    # signed runs, gives what the reference reads, and so do its cuts
    monkeypatch.setattr(codec, "_WINDOW", window)
    rng = np.random.default_rng(window)
    # 2-bit zeros up to two bits before the first window ends, then a
    # 130-bit field and a 127-bit signed one across the boundary
    fields = [(False, 0)] * (window // 2 - 1) + [(False, 2**64 - 1), (True, -(2**62))]
    while sum(2 * max(1, int(v).bit_length()) for _, v in fields) < 3 * window + 400:
        size = int(rng.integers(0, 63))
        value = int(rng.integers(-(2**size), 2**size)) if size else 0
        is_signed = bool(rng.integers(2))
        fields.append((is_signed, value if is_signed else abs(value)))
    signed = [s for s, _ in fields]
    values = [v for _, v in fields]
    data = pack_varints([enhanced_zigzag_map(v) if s else v for s, v in fields], signed, 1)
    assert 8 * len(data) > 3 * window

    def walk(reader, body):
        r = reader(body, 1)
        out = []
        try:
            for s, run in groupby(signed):
                n = len(list(run))
                out.extend(r.signeds(n) if s else [r.unsigned() for _ in range(n)])
        except (CorruptionError, TruncationError) as exc:
            out.append(type(exc))
        return out, r.pos

    r = varint_reader(data, 1)
    assert [r.signed() if s else r.unsigned() for s in signed] == values
    assert r.remaining_bits < 8
    assert walk(varint_reader, data) == (values, r.pos)
    for cut in range(0, len(data), max(1, window // 64)):
        assert walk(varint_reader, data[:cut]) == walk(VarintReader, data[:cut])
