"""Tests for the deterministic position-encoding baseline."""

import hashlib
import math

import numpy as np
import pytest

from urbanbench.core import ValidationError
from urbanbench.grid import EARTH_RADIUS_M
from urbanbench.pe_encoder import (
    _ALPHA,
    N_FREQ,
    PE_DIM,
    PE_ENCODER_ID,
    R_MAX_M,
    R_MIN_M,
    encode,
    get_encoder,
)


def encode1(lon, lat):
    return encode([lon], [lat])[0]


class TestPEConfig:
    def test_default_dim_192(self):
        assert N_FREQ == 64
        assert PE_DIM == 192

    def test_scale_ladder_geometric(self):
        scales = _ALPHA * EARTH_RADIUS_M
        assert scales[0] == pytest.approx(R_MIN_M) == 10.0
        assert scales[-1] == pytest.approx(R_MAX_M) == 10_000_000.0
        ratios = scales[1:] / scales[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


class TestEncode:
    def test_output_length_192(self):
        for lon, lat in [(0.0, 0.0), (-73.9, 40.7), (151.2, -33.9)]:
            assert encode1(lon, lat).shape == (192,)

    def test_batch_shape(self):
        assert encode([0.0, -73.9, 151.2], [0.0, 40.7, -33.9]).shape == (3, 192)
        assert encode(np.array([]), np.array([])).shape == (0, 192)

    def test_rows_equal_single_point_calls(self):
        rng = np.random.default_rng(2)
        lons, lats = rng.uniform(-180, 180, 50), rng.uniform(-90, 90, 50)
        batch = encode(lons, lats)
        for i in range(50):
            single = encode(lons[i:i + 1], lats[i:i + 1])[0]
            assert batch[i].tobytes() == single.tobytes()

    def test_golden_digest(self):
        # sha256 over a fixed 64x64 lon/lat grid, recorded from the one-point
        # `math` implementation the array one replaced (rows stacked in order).
        lon, lat = np.meshgrid(np.linspace(-180.0, 180.0, 64), np.linspace(-90.0, 90.0, 64))
        out = encode(lon.ravel(), lat.ravel())
        assert out.shape == (4096, 192)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "ccdf47d9bf31fc7d5886591644bad45715f2c7d79c036ac3be22d1e60b024bcb")

    def test_bounded(self):
        rng = np.random.default_rng(0)
        v = encode(rng.uniform(-180, 180, 100), rng.uniform(-90, 90, 100))
        assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(encode1(12.3, 45.6), encode1(12.3, 45.6))

    def test_antipodal_points_differ_at_largest_scale(self):
        a = encode1(0.0, 0.0)
        b = encode1(180.0, 0.0)
        # components of the largest scale occupy the last triple
        assert not np.allclose(a[-3:], b[-3:])

    def test_lipschitz_bound(self):
        # per-component finite differences bounded by 1/alpha_0 per radian
        bound = EARTH_RADIUS_M / R_MIN_M
        rng = np.random.default_rng(1)
        h_deg = 1e-9
        h_rad = math.radians(h_deg)
        lon = rng.uniform(-179, 179, 100)
        lat = rng.uniform(-89, 89, 100)
        d_lon = (encode(lon + h_deg, lat) - encode(lon - h_deg, lat)) / (2 * h_rad)
        d_lat = (encode(lon, lat + h_deg) - encode(lon, lat - h_deg)) / (2 * h_rad)
        assert np.max(np.abs(d_lon)) <= bound * (1 + 1e-6)
        assert np.max(np.abs(d_lat)) <= bound * (1 + 1e-6)


class TestRegistry:
    def test_registered_encoder(self):
        enc = get_encoder(PE_ENCODER_ID)
        assert enc.dim == 192
        assert enc.fn is encode

    def test_unknown_encoder_rejected(self):
        with pytest.raises(ValidationError, match="unknown coordinate encoder 'nope'"):
            get_encoder("nope")
