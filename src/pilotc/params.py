"""Codec parameters and named dataset profiles.

The compressor is driven by a single error bound ``eps`` (max allowed SED,
in position units).  Three internal knobs derive from it:

    eps_f = eps / a                   frequency quantization half-step
    b_s   = round(b * eps + c)        block size, at least 2, below 2**63
    r_ret = min(1, d / sqrt(eps))     retained fraction of low frequencies

A block of m velocities keeps K(m) = max(1, ceil(m * r_ret)) low-frequency
slots, so at most K(m) - 1 AC coefficients.  Block end values and
corrections use the per-dimension step eps_p / sqrt(dim), outliers the step
eps / sqrt(dim).  :class:`Layout` is the one place these rules are written.
:meth:`Layout.derive` computes a layout once per distinct eps, eps_p,
dimension and constants (it keeps the last 64) and hands that frozen
layout to every later caller, so compress, validation, serialize, parse
and the decoder of one track share one derivation.

The constants ``a, b, c, d`` are dataset-dependent; ``PROFILES`` ships the
tuned sets.  A container must be decoded with the same constants it was
encoded with (they are deliberately not stored in the file).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .codec import round_half_away


@dataclass(frozen=True)
class Layout:
    """Every knob derived from eps, for one dimensionality and one set of
    dataset constants; encoder, container and decoder all read it."""

    b_s: int        # velocities per full block
    eps_f: float    # frequency quantization half-step
    r_ret: float    # retained fraction of low-frequency slots
    eps_d: float    # per-dimension step of block end values and corrections
    eps_out: float  # per-dimension step of outlier coordinates

    @classmethod
    def derive(cls, eps: float, eps_p: float, dim: int, constants) -> "Layout":
        """``constants`` is any object carrying ``a, b, c, d`` (a
        :class:`Profile` or :class:`CodecParams`); equal arguments return
        the one layout derived first."""
        return _derive(eps, eps_p, dim, constants.a, constants.b, constants.c, constants.d)

    def budget(self, m: int) -> int:
        """Retained slot count K of a block of m velocities; slots 1..K-1
        may hold AC coefficients, the DC slot is never stored."""
        return max(1, math.ceil(m * self.r_ret))

    def partition(self, n_velocities):
        """The count of full blocks of b_s velocities, and the length of
        the tail block after them, which always exists and holds 1..b_s;
        of one count, or elementwise of an int64 array of them."""
        # an array's least count by one C reduce, which ndarray.any is not
        least = n_velocities if isinstance(n_velocities, int) else np.minimum.reduce(
            n_velocities, axis=None, initial=1)
        if least < 1:
            raise ValueError("a block partition needs at least one velocity")
        n_full = (n_velocities - 1) // self.b_s
        return n_full, n_velocities - n_full * self.b_s


@functools.lru_cache(maxsize=64)
def _derive(eps: float, eps_p: float, dim: int, a: float, b: float, c: float,
            d: float) -> Layout:
    size = b * eps + c
    if not size < 2.0 ** 63:
        raise ValueError(f"block size b_s = round(b * eps + c) = {size:.6g} at "
                         f"eps={eps} is out of range of int64")
    return Layout(
        b_s=round_half_away(max(size, 2.0)),
        eps_f=eps / a,
        r_ret=min(1.0, d / math.sqrt(eps)),
        eps_d=eps_p / math.sqrt(dim),
        eps_out=eps / math.sqrt(dim),
    )


def _check_constants(k) -> None:
    if not (0.0 < k.a < math.inf and 0.0 < k.d < math.inf
            and math.isfinite(k.b) and math.isfinite(k.c)):
        raise ValueError("constants a and d must be positive and finite, b and c finite; "
                         f"got a={k.a}, b={k.b}, c={k.c}, d={k.d}")


def _check_settings(k) -> None:
    """The encoding settings a :class:`Profile` defaults and a
    :class:`CodecParams` uses."""
    if not k.v_max > 0.0:  # inf turns the speed split off; NaN fails
        raise ValueError(f"v_max must be positive, got {k.v_max}")
    if not (k.eps_t > 0.0 and math.isfinite(k.eps_t)):
        raise ValueError(f"eps_t must be positive and finite, got {k.eps_t}")
    if not 1 <= k.chunk_bits <= 32:
        raise ValueError(f"chunk_bits must be in 1..32, got {k.chunk_bits}")
    if not 0.0 < k.eps_p_factor <= 1.0:
        raise ValueError(f"eps_p_factor must be in (0, 1], got {k.eps_p_factor}")


@dataclass(frozen=True)
class Profile:
    """Dataset constants plus encoding defaults, independent of eps."""

    name: str
    a: float
    b: float
    c: float
    d: float
    v_max: float = 200.0
    eps_t: float = 1.0
    chunk_bits: int = 2
    eps_p_factor: float = 0.5

    def __post_init__(self) -> None:
        _check_constants(self)
        _check_settings(self)

    def params(self, eps: float, **overrides) -> CodecParams:
        """This profile's constants and settings at ``eps``; ``overrides`` replace any by name."""
        settings = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "name"}
        return CodecParams(eps, **{**settings, **overrides})


PROFILES: dict[str, Profile] = {
    "nuplan": Profile("nuplan", a=0.6, b=20.0, c=100.0, d=0.04, eps_t=0.01),
    "geolife": Profile("geolife", a=0.6, b=0.5, c=25.0, d=1.1, eps_t=1.0),
    "geolife3d": Profile("geolife3d", a=0.7, b=0.5, c=25.0, d=0.8, eps_t=1.0),
    "mopsi": Profile("mopsi", a=0.6, b=1.0, c=25.0, d=0.6, eps_t=0.001),
}

DEFAULT_PROFILE = PROFILES["geolife"]


@dataclass(frozen=True)
class CodecParams:
    """Full parameter set for one compression run; settings default to
    :data:`DEFAULT_PROFILE`'s."""

    eps: float
    a: float = DEFAULT_PROFILE.a
    b: float = DEFAULT_PROFILE.b
    c: float = DEFAULT_PROFILE.c
    d: float = DEFAULT_PROFILE.d
    v_max: float = DEFAULT_PROFILE.v_max
    eps_t: float = DEFAULT_PROFILE.eps_t
    chunk_bits: int = DEFAULT_PROFILE.chunk_bits
    eps_p_factor: float = DEFAULT_PROFILE.eps_p_factor

    def __post_init__(self) -> None:
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        _check_constants(self)
        _check_settings(self)
        self.layout(1)  # the derived knobs must be usable too

    def layout(self, dim: int) -> Layout:
        return Layout.derive(self.eps, self.eps_p, dim, self)

    @property
    def eps_p(self) -> float:
        return self.eps_p_factor * self.eps
