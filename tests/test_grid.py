"""Tests for block grids, the hex tessellation, and the local projection."""

import math

import numpy as np
import pytest

from urbanbench.core import Rect, TaskUnit, ValidationError
from urbanbench.grid import (
    HexGrid,
    assign_block,
    assign_block_point,
    build_block_grid,
    hex_cell_center,
    hex_cell_center_xy,
    hex_cell_of,
    hex_cell_of_xy,
    project,
    unproject,
)

UNIT10 = Rect(0.0, 0.0, 10.0, 10.0)


class TestBlockGrid:
    def test_10x10_unit_blocks(self):
        grid = build_block_grid(UNIT10, 10, 10)
        assert grid.n_blocks == 100
        b = grid.block_extent(0)
        assert (b.width, b.height) == (1.0, 1.0)

    def test_single_block_equals_extent(self):
        grid = build_block_grid(UNIT10, 1, 1)
        assert grid.n_blocks == 1
        assert grid.block_extent(0) == UNIT10

    def test_20x20_gives_400_half_blocks(self):
        grid = build_block_grid(UNIT10, 20, 20)
        assert grid.n_blocks == 400
        b = grid.block_extent(0)
        assert (b.width, b.height) == (0.5, 0.5)

    def test_zero_area_extent_rejected(self):
        with pytest.raises(ValidationError):
            build_block_grid(Rect(0, 0, 0, 5), 2, 2)

    def test_containment_assignment(self):
        grid = build_block_grid(UNIT10, 10, 10)
        u = TaskUnit("u", 3.5, 7.2)
        assert grid.block_colrow(assign_block(u, grid)) == (3, 7)

    def test_internal_boundary_half_open(self):
        grid = build_block_grid(UNIT10, 10, 10)
        assert grid.block_colrow(assign_block_point(4.0, 0.5, grid))[0] == 4

    def test_max_corner_closed(self):
        grid = build_block_grid(UNIT10, 10, 10)
        assert assign_block_point(10.0, 10.0, grid) == 99

    def test_outside_points_clamp(self):
        grid = build_block_grid(UNIT10, 10, 10)
        assert assign_block_point(-5.0, -5.0, grid) == 0
        assert assign_block_point(99.0, 99.0, grid) == 99

    def test_partition_property(self):
        grid = build_block_grid(UNIT10, 7, 3)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(500, 2))
        ids = [assign_block_point(x, y, grid) for x, y in pts]
        assert all(0 <= i < grid.n_blocks for i in ids)
        # every point lands in the block whose extent contains it
        for (x, y), i in zip(pts, ids):
            b = grid.block_extent(i)
            assert b.x0 <= x <= b.x1 and b.y0 <= y <= b.y1

    def test_deterministic(self):
        grid = build_block_grid(UNIT10, 10, 10)
        assert assign_block_point(1.23, 4.56, grid) == assign_block_point(1.23, 4.56, grid)


class TestProjection:
    def test_anchor_maps_to_origin(self):
        g = HexGrid(5.0, 50.0)
        assert project(g, 5.0, 50.0) == (0.0, 0.0)

    def test_round_trip(self):
        g = HexGrid(-73.9, 40.7)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = rng.uniform(-100_000, 100_000, size=2)
            lon, lat = unproject(g, x, y)
            x2, y2 = project(g, lon, lat)
            assert math.hypot(x2 - x, y2 - y) < 1e-6

    def test_distance_preserved_radially(self):
        # azimuthal equidistant: distance from the anchor is exact
        g = HexGrid(0.0, 0.0)
        x, y = project(g, 0.0, 0.5)
        assert abs(math.hypot(x, y) - math.radians(0.5) * 6_371_000.0) < 1e-6

    def test_validity_radius(self):
        g = HexGrid(0.0, 0.0)
        with pytest.raises(ValidationError, match="validity"):
            project(g, 10.0, 0.0)  # ~1100 km away

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        g = HexGrid(0.0, 0.0)
        with pytest.raises(ValidationError, match=r"point \(.*\) is not finite"):
            project(g, bad, 0.0)
        with pytest.raises(ValidationError, match=r"point \(.*\) is not finite"):
            project(g, 0.0, bad)


class TestHexGrid:
    def test_center_is_fixed_point(self):
        g = HexGrid(2.0, 48.0)
        for cell in [(0, 0), (3, -2), (-5, 7), (12, 12)]:
            lon, lat = hex_cell_center(cell, g)
            assert hex_cell_of(lon, lat, g) == cell

    def test_round_trip_1000_random_cells(self):
        g = HexGrid(103.8, 1.35)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            cell = (int(rng.integers(-60, 60)), int(rng.integers(-60, 60)))
            lon, lat = hex_cell_center(cell, g)
            assert hex_cell_of(lon, lat, g) == cell

    def test_adjacent_centers_sqrt3_edge_apart(self):
        g = HexGrid(0.0, 0.0, edge_len_m=461.0)
        cx, cy = hex_cell_center_xy((2, 3), g)
        expected = math.sqrt(3) * 461.0
        for dq, dr in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]:
            nx, ny = hex_cell_center_xy((2 + dq, 3 + dr), g)
            assert abs(math.hypot(nx - cx, ny - cy) - expected) < 1e-9

    def test_points_near_center_share_cell(self):
        # brute-force nearest-center search over a candidate neighborhood
        g = HexGrid(0.0, 0.0)
        a = g.edge_len_m
        rng = np.random.default_rng(3)
        candidates = [(q, r) for q in range(-15, 16) for r in range(-15, 16)]
        centers = {c: hex_cell_center_xy(c, g) for c in candidates}
        for _ in range(300):
            cell = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            cx, cy = centers[cell]
            ang = rng.uniform(0, 2 * math.pi)
            rad = rng.uniform(0, a / 2 * 0.999)
            px, py = cx + rad * math.cos(ang), cy + rad * math.sin(ang)
            nearest = min(candidates, key=lambda c: (centers[c][0] - px) ** 2 + (centers[c][1] - py) ** 2)
            assert nearest == cell
            assert hex_cell_of_xy(px, py, g) == cell

    def test_packing_bound(self):
        # no projected point is farther than one edge length from its center
        g = HexGrid(0.0, 0.0)
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            px, py = rng.uniform(-20_000, 20_000, size=2)
            cell = hex_cell_of_xy(px, py, g)
            cx, cy = hex_cell_center_xy(cell, g)
            assert math.hypot(px - cx, py - cy) <= g.edge_len_m * (1 + 1e-12)

    def test_stable_ids(self):
        g = HexGrid(13.4, 52.5)
        assert hex_cell_of(13.41, 52.51, g) == hex_cell_of(13.41, 52.51, g)

    def test_beyond_validity_radius_errors(self):
        g = HexGrid(0.0, 0.0)
        with pytest.raises(ValidationError):
            hex_cell_of(20.0, 20.0, g)
