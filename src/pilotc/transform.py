"""Forward and inverse DCT with the codec's scaling.

Forward, length n:  C_0 = sqrt(1/n) * sum(v);
                    C_k = 2 * sum_i v_i * cos((2i+1) k pi / (2n)) for k >= 1.
Inverse:            v_i = (1/n) * sum_k C_k * cos((2i+1) k pi / (2n)).

The pair is an exact round trip only for zero-sum input (C_0 = 0), which is
the only case the compression pipeline produces.  Both functions accept
stacked rows of shape (..., n) and transform the last axis as one product
with a cached cosine basis.  The block codec keeps only the first K
frequencies, so it multiplies by the basis's first K columns instead.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=128)
def cosine_basis(n: int, k: int) -> np.ndarray:
    """Read-only (n, k) matrix with entry [i, j] = cos((2i+1) j pi / (2n))."""
    i = np.arange(n, dtype=float)
    j = np.arange(k, dtype=float)
    m = np.outer(2.0 * i + 1.0, j)
    m *= math.pi / (2.0 * n)
    np.cos(m, out=m)
    m.setflags(write=False)
    return m


def dct_forward(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if n < 1:
        raise ValueError("cannot transform an empty signal")
    c = 2.0 * (v @ cosine_basis(n, n))
    c[..., 0] = v.sum(axis=-1) * math.sqrt(1.0 / n)
    return c


def dct_inverse(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    n = c.shape[-1]
    if n < 1:
        raise ValueError("cannot transform an empty spectrum")
    return (c @ cosine_basis(n, n).T) / n
