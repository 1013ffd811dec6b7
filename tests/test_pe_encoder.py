"""Tests for the deterministic position-encoding baseline."""

import math

import numpy as np
import pytest

from urbanbench.core import ValidationError
from urbanbench.grid import EARTH_RADIUS_M
from urbanbench.pe_encoder import PE_ENCODER_ID, PEConfig, encode, get_encoder, pe_support


class TestPEConfig:
    def test_default_dim_192(self):
        cfg = PEConfig()
        assert cfg.n_freq == 64
        assert cfg.dim == 192

    def test_scale_ladder_geometric(self):
        cfg = PEConfig()
        scales = cfg.scales_m()
        assert scales[0] == pytest.approx(10.0)
        assert scales[-1] == pytest.approx(10_000_000.0)
        ratios = scales[1:] / scales[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValidationError):
            PEConfig(r_min_m=100.0, r_max_m=10.0)


class TestEncode:
    def test_output_length_192(self):
        for lon, lat in [(0.0, 0.0), (-73.9, 40.7), (151.2, -33.9)]:
            assert encode(lon, lat).shape == (192,)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = encode(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(encode(12.3, 45.6), encode(12.3, 45.6))

    def test_antipodal_points_differ_at_largest_scale(self):
        a = encode(0.0, 0.0)
        b = encode(180.0, 0.0)
        # components of the largest scale occupy the last triple
        assert not np.allclose(a[-3:], b[-3:])

    def test_lipschitz_bound(self):
        # per-component finite differences bounded by 1/alpha_0 per radian
        cfg = PEConfig()
        alpha0 = cfg.r_min_m / EARTH_RADIUS_M
        bound = 1.0 / alpha0
        rng = np.random.default_rng(1)
        h_deg = 1e-9
        h_rad = math.radians(h_deg)
        for _ in range(100):
            lon = float(rng.uniform(-179, 179))
            lat = float(rng.uniform(-89, 89))
            d_lon = (encode(lon + h_deg, lat) - encode(lon - h_deg, lat)) / (2 * h_rad)
            d_lat = (encode(lon, lat + h_deg) - encode(lon, lat - h_deg)) / (2 * h_rad)
            assert np.max(np.abs(d_lon)) <= bound * (1 + 1e-6)
            assert np.max(np.abs(d_lat)) <= bound * (1 + 1e-6)


class TestRegistry:
    def test_registered_encoder(self):
        enc = get_encoder(PE_ENCODER_ID)
        assert enc.dim == 192
        np.testing.assert_array_equal(enc.fn(1.0, 2.0), encode(1.0, 2.0))

    def test_support_wraps_config(self):
        sup = pe_support(PEConfig(n_freq=8))
        assert sup.dim == 24

    def test_unknown_encoder_rejected(self):
        with pytest.raises(ValidationError, match="unknown coordinate encoder 'nope'"):
            get_encoder("nope")
