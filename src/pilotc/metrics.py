"""Evaluation metrics, and the variance law of a block's reconstruction error.

The raw size of a trajectory is charged at 8 * (dim + 1) bytes per point
(one float64 per coordinate plus the timestamp); the compression ratio is
compressed bytes over raw bytes, lower meaning better.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

BYTES_PER_VALUE = 8


@dataclass
class EvalReport:
    name: str
    n_points: int
    dim: int
    raw_bytes: int
    compressed_bytes: int
    compression_ratio: float
    max_sed: float | None = None
    mean_sed: float | None = None
    corrected_fraction: float | None = None
    eps: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_csv_row(self) -> str:
        return ",".join(map(_csv_cell, asdict(self).values()))


# the dataclass fields are the one column list, of the csv and of the json
EvalReport.CSV_HEADER = ",".join(f.name for f in fields(EvalReport))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def raw_size_bytes(n_points: int, dim: int) -> int:
    return BYTES_PER_VALUE * (dim + 1) * n_points


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis of ``d``: the squared columns
    summed in column order, then one square root.  Below 8 columns this
    equals ``np.linalg.norm(d, axis=-1)`` bitwise; from 8 on numpy sums
    pairwise, and this keeps the sequential sum.  The encoder's split and
    correction tests and the error metrics all measure with it."""
    total = d[..., 0] * d[..., 0]
    for c in range(1, d.shape[-1]):
        total += d[..., c] * d[..., c]
    return np.sqrt(total)


def _paired_distances(original, reconstructed) -> np.ndarray:
    a = np.asarray(original, dtype=float)
    b = np.asarray(reconstructed, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return row_norms(a - b)


def max_sed(original, reconstructed) -> float:
    """Largest Euclidean distance between matched original and reconstructed points."""
    return float(_paired_distances(original, reconstructed).max())


def mean_sed(original, reconstructed) -> float:
    return float(_paired_distances(original, reconstructed).mean())


def var_delta_s(k: int, b_s: int, eps_f: float) -> float:
    """Variance of the cumulative reconstruction error at sample k of a block
    whose coefficients carry i.i.d. uniform errors in [-eps_f, eps_f):
    (k*b_s - k^2) * eps_f^2 / (6 * b_s^2)."""
    if not 1 <= k <= b_s:
        raise ValueError(f"k must be in 1..{b_s}, got {k}")
    return (k * b_s - k * k) * eps_f * eps_f / (6.0 * b_s * b_s)
