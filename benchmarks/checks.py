"""Output checks and structure counts for the pilotc benchmark.

The reference decoder here rebuilds each segment's uniform grid from the
container rules written in ``pilotc.container`` and README, sharing no code
with ``pilotc.reconstruct``:

- the block partition is full blocks of b_s velocities plus one shorter
  tail, with b_s = max(2, round_half_away(b * eps + c));
- block end values ride a cumulative index chain anchored at p0, with
  step 2 * eps_p / sqrt(dim);
- coefficients dequantize with step 2 * eps / a into AC slots 1..c_f of a
  zero-DC spectrum, which ``scipy.fft.idct(C, type=2)`` inverts exactly as
  the codec's inverse (scale 1/N) does;
- velocities are the inverse transform plus the block's average velocity,
  and the block's last sample is pinned to its end value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import idct

# bound at import, so the traced run's wrapper never times the check
from pilotc.reconstruct import decompress_uniform


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0.0 else int(math.ceil(v - 0.5))


def _block_size(eps: float, profile) -> int:
    return max(2, _round_half_away(profile.b * eps + profile.c))


def _partition(n_velocities: int, b_s: int) -> list[int]:
    full, tail = divmod(n_velocities, b_s)
    return [b_s] * full + ([tail] if tail else [])


def reference_grid(model, profile) -> list[np.ndarray]:
    """Uniform samples of every segment, shape (n_samples, dim) each."""
    b_s = _block_size(model.eps, profile)
    coeff_step = 2.0 * model.eps / profile.a
    start_step = 2.0 * model.eps_p
    end_step = 2.0 * model.eps_p / math.sqrt(model.dim)
    grids = []
    for seg in model.segments:
        sizes = _partition(seg.n_samples - 1, b_s)
        values = np.empty((seg.n_samples, model.dim))
        for d in range(model.dim):
            p0 = seg.p0_q[d] * start_step
            chain = np.cumsum([blk.end_delta_q for blk in seg.blocks[d]])
            values[0, d] = start = p0
            pos = 0
            for blk, m, cum in zip(seg.blocks[d], sizes, chain):
                end = p0 + float(cum) * end_step
                spectrum = np.zeros(m)
                spectrum[1:1 + blk.c_f] = np.asarray(blk.q_coeffs, dtype=float) * coeff_step
                velocities = idct(spectrum, type=2) + (end - start) / m
                values[pos + 1:pos + m + 1, d] = start + np.cumsum(velocities)
                values[pos + m, d] = end
                start = end
                pos += m
        grids.append(values)
    return grids


def grid_mismatch(model, profile) -> str | None:
    """Compare ``decompress_uniform`` with the reference decoder."""
    library = decompress_uniform(model, profile)
    reference = reference_grid(model, profile)
    if len(library) != len(reference):
        return f"{len(library)} decoded segments, reference has {len(reference)}"
    for i, (lib, ref) in enumerate(zip(library, reference)):
        if lib.values.shape != ref.shape:
            return f"segment {i}: grid shape {lib.values.shape}, reference {ref.shape}"
        # float dust of two transform implementations and a cumulative sum;
        # a wrong coefficient or anchor is off by at least eps_f or eps_d
        tol = 1e-9 * max(1.0, float(np.abs(ref).max()))
        gap = float(np.abs(lib.values - ref).max())
        if gap > tol:
            return f"segment {i}: grid differs from reference by {gap:.3g} (tol {tol:.3g})"
    return None


def max_error(points: np.ndarray, positions: np.ndarray) -> float:
    """Largest Euclidean distance between matching rows."""
    return float(np.sqrt(((points - positions) ** 2).sum(axis=1)).max())


def structure_counts(models, profile, n_points: int) -> dict[str, tuple[float, str]]:
    """Exact counts of the structures the container stores, over a corpus,
    as metric name -> (value, unit)."""
    c = dict.fromkeys(("fragments", "outliers", "blocks", "coefficients",
                       "corrections", "varint_fields", "budget"), 0)
    for model in models:
        b_s = _block_size(model.eps, profile)
        r_ret = min(1.0, profile.d / math.sqrt(model.eps))
        c["fragments"] += len(model.segments)
        c["outliers"] += len(model.outliers)
        c["corrections"] += len(model.corrections)
        # three counts, then (time delta + dim values) per outlier/correction,
        # then per segment a t0 delta, dim starts and a sample count
        fields = 3 + (1 + model.dim) * (len(model.outliers) + len(model.corrections))
        for seg in model.segments:
            fields += 2 + model.dim
            sizes = _partition(seg.n_samples - 1, b_s)
            for per_dim in seg.blocks:
                for blk, m in zip(per_dim, sizes):
                    c["blocks"] += 1
                    c["coefficients"] += blk.c_f
                    c["budget"] += max(1, math.ceil(m * r_ret)) - 1
                    fields += 2 + blk.c_f  # end delta, count, coefficients
        c["varint_fields"] += fields
    budget = c.pop("budget")
    out = {f"count.{k}": (v, "count") for k, v in c.items()}
    out["pipeline.corrected_per_point"] = (c["corrections"] / n_points, "ratio")
    out["blocks.coeff_fill"] = (c["coefficients"] / budget if budget else 0.0, "ratio")
    return out
