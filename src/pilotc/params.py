"""Codec parameters and named dataset profiles.

The compressor is driven by a single error bound ``eps`` (max allowed SED,
in position units).  Three internal knobs derive from it:

    eps_f = eps / a                   frequency quantization half-step
    b_s   = round(b * eps + c)        block size, at least 2
    r_ret = min(1, d / sqrt(eps))     retained fraction of low frequencies

A block of m velocities keeps K(m) = max(1, ceil(m * r_ret)) low-frequency
slots, so at most K(m) - 1 AC coefficients.  Block end values and
corrections use the per-dimension step eps_p / sqrt(dim), outliers the step
eps / sqrt(dim).  :class:`Layout` is the one place these rules are written.

The constants ``a, b, c, d`` are dataset-dependent; ``PROFILES`` ships the
tuned sets.  A container must be decoded with the same constants it was
encoded with (they are deliberately not stored in the file).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        :class:`Profile` or :class:`CodecParams`)."""
        return cls(
            b_s=max(2, round_half_away(constants.b * eps + constants.c)),
            eps_f=eps / constants.a,
            r_ret=min(1.0, constants.d / math.sqrt(eps)),
            eps_d=eps_p / math.sqrt(dim),
            eps_out=eps / math.sqrt(dim),
        )

    def budget(self, m: int) -> int:
        """Retained slot count K of a block of m velocities; slots 1..K-1
        may hold AC coefficients, the DC slot is never stored."""
        return max(1, math.ceil(m * self.r_ret))

    def partition(self, n_velocities: int) -> tuple[int, int]:
        """The count of full blocks of b_s velocities, and the length of
        the tail block after them, which always exists and holds 1..b_s."""
        if n_velocities < 1:
            raise ValueError("a block partition needs at least one velocity")
        n_full = (n_velocities - 1) // self.b_s
        return n_full, n_velocities - n_full * self.b_s


def _check_constants(k) -> None:
    if not (0.0 < k.a < math.inf and 0.0 < k.d < math.inf
            and math.isfinite(k.b) and math.isfinite(k.c)):
        raise ValueError("constants a and d must be positive and finite, b and c finite; "
                         f"got a={k.a}, b={k.b}, c={k.c}, d={k.d}")


@dataclass(frozen=True)
class CodecParams:
    """Full parameter set for one compression run."""

    eps: float
    a: float = 0.6
    b: float = 0.5
    c: float = 25.0
    d: float = 1.1
    v_max: float = 200.0
    eps_t: float = 1.0
    chunk_bits: int = 2
    eps_p_factor: float = 0.5

    def __post_init__(self) -> None:
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        _check_constants(self)
        if self.v_max <= 0.0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if self.eps_t <= 0.0:
            raise ValueError(f"eps_t must be positive, got {self.eps_t}")
        if not 1 <= self.chunk_bits <= 32:
            raise ValueError(f"chunk_bits must be in 1..32, got {self.chunk_bits}")
        if not 0.0 < self.eps_p_factor <= 1.0:
            raise ValueError(f"eps_p_factor must be in (0, 1], got {self.eps_p_factor}")

    def layout(self, dim: int) -> Layout:
        return Layout.derive(self.eps, self.eps_p, dim, self)

    @property
    def eps_p(self) -> float:
        return self.eps_p_factor * self.eps


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

    def params(self, eps: float, **overrides) -> CodecParams:
        base = CodecParams(
            eps=eps, a=self.a, b=self.b, c=self.c, d=self.d,
            v_max=self.v_max, eps_t=self.eps_t, chunk_bits=self.chunk_bits,
            eps_p_factor=self.eps_p_factor,
        )
        return replace(base, **overrides) if overrides else base


PROFILES: dict[str, Profile] = {
    "nuplan": Profile("nuplan", a=0.6, b=20.0, c=100.0, d=0.04, eps_t=0.01),
    "geolife": Profile("geolife", a=0.6, b=0.5, c=25.0, d=1.1, eps_t=1.0),
    "geolife3d": Profile("geolife3d", a=0.7, b=0.5, c=25.0, d=0.8, eps_t=1.0),
    "mopsi": Profile("mopsi", a=0.6, b=1.0, c=25.0, d=0.6, eps_t=0.001),
}

DEFAULT_PROFILE = PROFILES["geolife"]
