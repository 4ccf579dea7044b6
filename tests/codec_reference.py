"""Shared test helper: plain reference implementations of the block codec.

The library codes every block of a series in one batched, truncated
cosine product.  These references do the same job the slow, obvious way,
one block at a time with a full cosine sum, so tests can require the
library to agree with them.
"""

import math

import numpy as np

from pilotc.codec import dequantize_array, quantize_array
from pilotc.model import EncodedBlock, block_lengths


def _cosines(n: int) -> np.ndarray:
    # entry [i, k] = cos((2i+1) k pi / (2n)), the angle reduced mod 2 pi in
    # exact integer arithmetic before it is scaled
    phase = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    return np.cos(phase * (math.pi / (2.0 * n)))


def dct_forward_ref(values) -> np.ndarray:
    """C_0 = sqrt(1/n) sum(v); C_k = 2 sum_i v_i cos((2i+1) k pi / (2n))."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    c = 2.0 * (v @ _cosines(n))
    c[..., 0] = v.sum(axis=-1) * math.sqrt(1.0 / n)
    return c


def dct_inverse_ref(coeffs) -> np.ndarray:
    """v_i = (1/n) sum_k C_k cos((2i+1) k pi / (2n))."""
    c = np.asarray(coeffs, dtype=float)
    return (c @ _cosines(c.shape[-1]).T) / c.shape[-1]


def block_compress_ref(samples, layout) -> tuple[int, ...]:
    """Coefficients of one block of m+1 samples."""
    s = np.asarray(samples, dtype=float)
    m = s.shape[0] - 1
    centered = np.diff(s) - (s[-1] - s[0]) / m
    spectrum = dct_forward_ref(centered)
    q = quantize_array(spectrum[1:layout.budget(m)], layout.eps_f)
    nonzero = np.flatnonzero(q)
    return tuple(int(v) for v in q[: nonzero[-1] + 1]) if nonzero.size else ()


def block_decompress_ref(q_coeffs, m: int, start: float, end: float, layout) -> np.ndarray:
    """The m+1 samples of one block between its anchor values."""
    spectrum = np.zeros(m)
    spectrum[1:1 + len(q_coeffs)] = dequantize_array(q_coeffs, layout.eps_f)
    out = np.empty(m + 1)
    out[0] = start
    out[1:] = start + np.cumsum(dct_inverse_ref(spectrum) + (end - start) / m)
    out[-1] = end
    return out


def encode_series_ref(values, layout, eps_p: float):
    """Per-block encoding of a uniform series: (p0_q, blocks[dim][block])."""
    sizes = block_lengths(values.shape[0] - 1, layout.b_s)
    ends = np.cumsum(sizes)
    p0_q, per_dim = [], []
    for x in values.T:
        q0 = int(quantize_array(x[0], eps_p))
        p0 = float(dequantize_array(q0, eps_p))
        deltas = np.diff(quantize_array(x[ends] - p0, layout.eps_d), prepend=0)
        blks, pos = [], 0
        for m, delta in zip(sizes, deltas):
            blks.append(EncodedBlock(block_compress_ref(x[pos:pos + m + 1], layout), int(delta)))
            pos += m
        p0_q.append(q0)
        per_dim.append(tuple(blks))
    return tuple(p0_q), tuple(per_dim)


def decode_series_ref(p0_q, blocks, n_samples: int, layout, eps_p: float) -> np.ndarray:
    """Per-block decoding of one segment's uniform samples, (n_samples, dim)."""
    sizes = block_lengths(n_samples - 1, layout.b_s)
    values = np.empty((n_samples, len(p0_q)))
    for d, (q0, blks) in enumerate(zip(p0_q, blocks)):
        start = p0 = float(dequantize_array(q0, eps_p))
        values[0, d] = p0
        cum = pos = 0
        for blk, m in zip(blks, sizes):
            cum += blk.end_delta_q
            end = p0 + float(dequantize_array(cum, layout.eps_d))
            values[pos + 1:pos + m + 1, d] = block_decompress_ref(
                blk.q_coeffs, m, start, end, layout)[1:]
            start = end
            pos += m
    return values
