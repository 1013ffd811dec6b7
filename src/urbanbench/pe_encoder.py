"""Built-in deterministic position-encoding baseline.

A multi-scale spherical sine/cosine basis over a geometric ladder of 64
length scales; three components per scale give a 192-d vector bounded in
[-1, 1]. This gives the harness one end-to-end runnable model with zero
external inputs.
"""

from __future__ import annotations

import numpy as np

from .core import CoordinateEncoderSupport, ValidationError
from .grid import EARTH_RADIUS_M

PE_ENCODER_ID = "pe_spherec_approx"

N_FREQ = 64
R_MIN_M = 10.0
R_MAX_M = 10_000_000.0  # 10,000 km
PE_DIM = 3 * N_FREQ

# Length scales in radians: R_MIN_M to R_MAX_M in geometric steps.
_ALPHA = (R_MIN_M * (R_MAX_M / R_MIN_M) ** (np.arange(N_FREQ, dtype=np.float64) / (N_FREQ - 1))
          / EARTH_RADIUS_M)


def encode(lons, lats) -> np.ndarray:
    """Encode n coordinates into an (n, PE_DIM) array; deterministic and bounded in [-1, 1]."""
    lam = np.radians(np.asarray(lons, dtype=np.float64)).reshape(-1, 1) / _ALPHA
    phi = np.radians(np.asarray(lats, dtype=np.float64)).reshape(-1, 1) / _ALPHA
    cos_phi = np.cos(phi)
    out = np.empty((lam.shape[0], N_FREQ, 3), dtype=np.float64)
    out[:, :, 0] = np.sin(phi)
    out[:, :, 1] = cos_phi * np.sin(lam)
    out[:, :, 2] = cos_phi * np.cos(lam)
    return out.reshape(-1, PE_DIM)


def pe_support() -> CoordinateEncoderSupport:
    return CoordinateEncoderSupport(encoder_id=PE_ENCODER_ID, dim=PE_DIM, fn=encode)


def get_encoder(encoder_id: str) -> CoordinateEncoderSupport:
    """The support a manifest's `encoder` id names; the built-in encoder is the only one."""
    if encoder_id != PE_ENCODER_ID:
        raise ValidationError(f"unknown coordinate encoder {encoder_id!r}")
    return pe_support()
