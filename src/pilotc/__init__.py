"""Error-bounded, DCT-based lossy compression of timestamped trajectories.

Typical use:

    >>> from pilotc import PROFILES, compress, serialize, parse, Reconstructor
    >>> params = PROFILES["geolife"].params(eps=50.0)
    >>> model = compress(trajectory, params)
    >>> payload = serialize(model, PROFILES["geolife"])
    >>> rec = Reconstructor(parse(payload, PROFILES["geolife"]), PROFILES["geolife"])
    >>> positions = rec.query(trajectory.times)

Every reconstructed position at an original timestamp is guaranteed to lie
within ``eps`` (Euclidean) of the original point.
"""

from .container import parse, serialize
from .errors import (
    CorruptionError,
    DataError,
    FormatError,
    PilotCError,
    QueryRangeError,
    TruncationError,
)
from .metrics import EvalReport, max_sed, mean_sed, raw_size_bytes, var_delta_s
from .model import CompressedTrajectory, TrajectoryRecord
from .params import DEFAULT_PROFILE, PROFILES, CodecParams, Profile
from .pipeline import choose_dt, compress, resample, segment, validate_and_correct
from .reconstruct import Reconstructor
from .synth import synthetic_trajectory

__version__ = "0.1.0"

__all__ = [
    "CodecParams",
    "CompressedTrajectory",
    "CorruptionError",
    "DataError",
    "DEFAULT_PROFILE",
    "EvalReport",
    "FormatError",
    "PilotCError",
    "PROFILES",
    "Profile",
    "QueryRangeError",
    "Reconstructor",
    "TrajectoryRecord",
    "TruncationError",
    "choose_dt",
    "compress",
    "max_sed",
    "mean_sed",
    "parse",
    "raw_size_bytes",
    "resample",
    "segment",
    "serialize",
    "synthetic_trajectory",
    "validate_and_correct",
    "var_delta_s",
]
