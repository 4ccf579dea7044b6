"""Batched block coding of one spatial dimension.

Each row of a batch is one block of m+1 samples, m velocities.  Compression
zero-centers the velocities against the block's average velocity,
transforms them, quantizes with step ``eps_f``, keeps the first
``K(m) - 1`` AC coefficients (see :meth:`~pilotc.params.Layout.budget`)
and strips trailing zeros.  The DC coefficient is identically zero and
never stored.  Only the K retained cosine columns are ever multiplied, so
one (m, K-1) product codes the whole batch.

Decompression is the exact mirror and anchors every block on externally
supplied start and end values, so per-block errors never accumulate across
a trajectory.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .codec import dequantize_array, quantize_array
from .errors import CorruptionError
from .params import Layout
from .transform import cosine_basis


def encode_rows(samples, layout: Layout) -> list[tuple[int, ...]]:
    """Quantized AC coefficients of each row of ``samples``, shape (n, m+1)."""
    s = np.asarray(samples, dtype=float)
    m = s.shape[1] - 1
    if m < 1:
        raise ValueError("a block must contain at least two samples")
    centered = np.diff(s, axis=1) - ((s[:, -1] - s[:, 0]) / m)[:, None]
    ac = cosine_basis(m, layout.budget(m))[:, 1:]
    q = quantize_array(2.0 * (centered @ ac), layout.eps_f)
    # one past each row's last nonzero coefficient: trailing zeros are dropped
    kept = ((q != 0) * np.arange(1, q.shape[1] + 1)).max(axis=1, initial=0)
    return [tuple(row[:k]) for row, k in zip(q.tolist(), kept.tolist())]


def decode_rows(coeffs, m: int, starts, ends, layout: Layout) -> np.ndarray:
    """Rebuild n blocks of m velocities, shape (n, m+1), from their stored
    coefficient tuples and their anchor values ``starts`` and ``ends``."""
    if m < 1:
        raise ValueError("a block must contain at least one velocity")
    width = layout.budget(m) - 1
    counts = np.fromiter(map(len, coeffs), np.int64, len(coeffs))
    if counts.size and counts.max() > width:
        raise CorruptionError(
            f"block holds {counts.max()} coefficients, the budget for {m} "
            f"velocities is {width}"
        )
    q = np.zeros((counts.size, width), dtype=np.int64)
    q[np.arange(width) < counts[:, None]] = np.fromiter(
        chain.from_iterable(coeffs), np.int64, int(counts.sum()))
    ac = cosine_basis(m, width + 1)[:, 1:]
    centered = (dequantize_array(q, layout.eps_f) @ ac.T) / m
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = np.empty((counts.size, m + 1))
    out[:, 0] = starts
    out[:, 1:] = starts[:, None] + np.cumsum(centered + ((ends - starts) / m)[:, None], axis=1)
    out[:, -1] = ends  # sum of centered velocities is zero up to float dust
    return out
