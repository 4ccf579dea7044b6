"""The public API: every name in ``pilotc.__all__``, and the parameter
names of every public callable.  A change to the public API is an edit to
this file."""

import inspect

import pilotc

# name -> parameter names; None for a value, or for an exception class that
# takes Exception's message arguments
PUBLIC = {
    "CodecParams": ["eps", "a", "b", "c", "d", "v_max", "eps_t", "chunk_bits", "eps_p_factor"],
    "CompressedTrajectory": ["dim", "dt", "eps", "eps_t", "eps_p", "chunk_bits",
                             "segments", "outliers", "corrections"],
    "CorruptionError": None,
    "DataError": None,
    "DEFAULT_PROFILE": None,
    "EvalReport": ["name", "n_points", "dim", "raw_bytes", "compressed_bytes",
                   "compression_ratio", "max_sed", "mean_sed", "corrected_fraction", "eps"],
    "FormatError": None,
    "PilotCError": None,
    "PROFILES": None,
    "Profile": ["name", "a", "b", "c", "d", "v_max", "eps_t", "chunk_bits", "eps_p_factor"],
    "QueryRangeError": ["timestamp"],
    "Reconstructor": ["model", "constants"],
    "TrajectoryRecord": ["times", "points"],
    "TruncationError": None,
    "UniformSeries": ["t0", "dt", "values"],
    "choose_dt": ["times", "lo", "hi", "eps_t", "default_dt"],
    "compress": ["traj", "params"],
    "decompress_uniform": ["model", "constants"],
    "max_sed": ["original", "reconstructed"],
    "mean_sed": ["original", "reconstructed"],
    "parse": ["data", "profile"],
    "raw_size_bytes": ["n_points", "dim"],
    "resample": ["traj", "lo", "hi", "dt"],
    "segment": ["traj", "params", "default_dt"],
    "serialize": ["model", "profile"],
    "synthetic_trajectory": ["n_points", "dim", "dt", "seed", "speed_scale", "wobble_window",
                             "turn_rate", "jitter", "gap_jitter", "big_gap_rate",
                             "teleport_rate"],
    "validate_and_correct": ["traj", "model", "params"],
    "var_delta_s": ["k", "b_s", "eps_f"],
}


def parameters(obj):
    if not callable(obj):
        return None
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__init__ is Exception.__init__:
        return None
    return list(inspect.signature(obj).parameters)


def test_public_names():
    assert sorted(pilotc.__all__) == sorted(PUBLIC)


def test_public_signatures():
    assert {name: parameters(getattr(pilotc, name)) for name in pilotc.__all__} == PUBLIC
