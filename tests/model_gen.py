"""Shared test helper: models built by hand, and randomized, internally
consistent ones."""

import numpy as np

from pilotc.container import segment_end_index
from pilotc.model import (
    BlockColumns,
    CompressedTrajectory,
    EncodedBlock,
    EntryColumns,
    SegmentColumns,
    SubTrajectorySegment,
)
from pilotc.params import PROFILES, Layout

GEO = PROFILES["geolife"]


def _rows(rows, dim):
    """``rows`` of ints as an int64 (len(rows), width) array; (0, dim) when empty."""
    return np.array(rows, dtype=np.int64) if len(rows) else np.zeros((0, dim), dtype=np.int64)


def hand_built(dim, dt, eps, eps_t, eps_p, chunk_bits, segments=(), outliers=(),
               corrections=()):
    """A model built by hand from records: ``segments`` as
    (t0_index, p0_q, n_samples, blocks) tuples, whose ``blocks[d]`` lists
    dimension d's blocks as (q_coeffs, end_delta_q) tuples, and ``outliers``
    and ``corrections`` as (t_index, values) tuples.  The records become
    columns as they stand, so that every column rule can be broken; the
    block store carries no plan, so the library checks every rule wherever
    it reads the model."""
    blocks = [blk for seg in segments for per_dim in seg[3] for blk in per_dim]
    store = BlockColumns([len(q) for q, _ in blocks], [d for _, d in blocks],
                         [v for q, _ in blocks for v in q])
    segs = SegmentColumns([s[0] for s in segments], _rows([s[1] for s in segments], dim),
                          [s[2] for s in segments], store)

    def entries(records):
        return EntryColumns([t for t, _ in records], _rows([v for _, v in records], dim))

    return CompressedTrajectory(dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=eps_p,
                                chunk_bits=chunk_bits, segments=segs,
                                outliers=entries(outliers), corrections=entries(corrections))


def random_model(rng, dim=None, eps=None, chunk_bits=None):
    dim = dim or int(rng.integers(1, 4))
    eps = eps or float(rng.choice([1.0, 5.0, 10.0, 50.0]))
    lay = Layout.derive(eps, 0.5 * eps, dim, GEO)

    def random_blocks(n_samples):
        n_full, tail = lay.partition(n_samples - 1)
        per_dim = []
        for _ in range(dim):
            blks = []
            for m in [lay.b_s] * n_full + [tail]:
                limit = lay.budget(m) - 1
                c_f = int(rng.integers(0, limit + 1))
                coeffs = [int(v) for v in rng.integers(-5000, 5000, c_f)]
                if c_f and coeffs[-1] == 0:
                    coeffs[-1] = 1
                blks.append(EncodedBlock(tuple(coeffs), int(rng.integers(-10000, 10000))))
            per_dim.append(tuple(blks))
        return tuple(per_dim)

    t = int(rng.integers(0, 1000))
    outliers = []
    coords = np.zeros(dim, dtype=np.int64)
    for _ in range(int(rng.integers(0, 6))):
        t += int(rng.integers(1, 1000))
        coords = coords + rng.integers(-10**6, 10**6, dim)
        outliers.append((t, tuple(int(v) for v in coords)))

    t = 0
    corrections = []
    for _ in range(int(rng.integers(0, 6))):
        t += int(rng.integers(1, 1000))
        corrections.append((t, tuple(int(v) for v in rng.integers(-50, 50, dim))))

    segments = []
    t_idx = int(rng.integers(0, 100))
    dt = float(rng.choice([0.1, 1.0, 2.0]))
    eps_t = 0.01
    for _ in range(int(rng.integers(0, 5))):
        n_samples = int(rng.integers(2, 400))
        segments.append(SubTrajectorySegment(
            t_idx,
            tuple(int(v) for v in rng.integers(-10**9, 10**9, dim)),
            n_samples,
            random_blocks(n_samples),
        ))
        # the next segment may overlap this one, but starts after it
        t_idx = max(segment_end_index(t_idx, n_samples, dt, eps_t) + int(rng.integers(-50, 5000)),
                    t_idx + 1)
    return hand_built(
        dim=dim, dt=dt, eps=eps, eps_t=eps_t, eps_p=0.5 * eps,
        chunk_bits=chunk_bits or int(rng.integers(1, 9)),
        segments=segments, outliers=outliers, corrections=corrections)
