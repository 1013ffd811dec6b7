"""Built-in deterministic position-encoding baseline.

A multi-scale spherical sine/cosine basis over a geometric ladder of 64
length scales; three components per scale give a 192-d vector bounded in
[-1, 1]. This gives the harness one end-to-end runnable model with zero
external inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoordinateEncoderSupport, ValidationError
from .grid import EARTH_RADIUS_M

PE_ENCODER_ID = "pe_spherec_approx"


@dataclass(frozen=True)
class PEConfig:
    n_freq: int = 64
    r_min_m: float = 10.0
    r_max_m: float = 10_000_000.0  # 10,000 km

    def __post_init__(self):
        if self.n_freq < 1:
            raise ValidationError("n_freq must be positive")
        if not (0 < self.r_min_m < self.r_max_m):
            raise ValidationError("need 0 < r_min < r_max")

    @property
    def dim(self) -> int:
        return 3 * self.n_freq

    def scales_m(self) -> np.ndarray:
        i = np.arange(self.n_freq, dtype=np.float64)
        return self.r_min_m * (self.r_max_m / self.r_min_m) ** (i / (self.n_freq - 1))


def encode(lon: float, lat: float, cfg: PEConfig = PEConfig()) -> np.ndarray:
    """Encode one coordinate; deterministic and bounded in [-1, 1]."""
    lam = math.radians(lon)
    phi = math.radians(lat)
    alpha = cfg.scales_m() / EARTH_RADIUS_M
    out = np.empty(cfg.dim, dtype=np.float64)
    for i, a in enumerate(alpha):
        s = 3 * i
        out[s] = math.sin(phi / a)
        out[s + 1] = math.cos(phi / a) * math.sin(lam / a)
        out[s + 2] = math.cos(phi / a) * math.cos(lam / a)
    return out


def pe_support(cfg: PEConfig = PEConfig()) -> CoordinateEncoderSupport:
    return CoordinateEncoderSupport(
        encoder_id=PE_ENCODER_ID,
        dim=cfg.dim,
        fn=lambda lon, lat: encode(lon, lat, cfg),
    )


def get_encoder(encoder_id: str) -> CoordinateEncoderSupport:
    """The support a manifest's `encoder` id names; the built-in encoder is the only one."""
    if encoder_id != PE_ENCODER_ID:
        raise ValidationError(f"unknown coordinate encoder {encoder_id!r}")
    return pe_support()
