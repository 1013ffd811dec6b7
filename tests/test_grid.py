"""Tests for block grids, the hex tessellation, and the local projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import TaskUnit, block_colrow, block_extent, block_id, hex_cell_center, n_blocks, unproject
from urbanbench.core import Rect, ValidationError
from urbanbench.grid import (
    BlockGrid,
    HexGrid,
    assign_blocks,
    hex_cell_center_xy,
    hex_cell_of,
    hex_cell_of_xy,
    hex_cells_of,
    hex_cells_of_xy,
    project,
    project_points,
)

UNIT10 = Rect(0.0, 0.0, 10.0, 10.0)


def assign_block_point(lon: float, lat: float, grid: BlockGrid) -> int:
    """Reference for `assign_blocks`: the block id of one point, in Python floats."""
    e = grid.extent
    lon = min(max(lon, e.x0), e.x1)
    lat = min(max(lat, e.y0), e.y1)
    col = min(int((lon - e.x0) / e.width * grid.nx), grid.nx - 1)
    row = min(int((lat - e.y0) / e.height * grid.ny), grid.ny - 1)
    return block_id(grid, col, row)


def assign_block(unit: TaskUnit, grid: BlockGrid) -> int:
    return assign_block_point(unit.lon, unit.lat, grid)


class TestBlockGrid:
    def test_10x10_unit_blocks(self):
        grid = BlockGrid(UNIT10, 10, 10)
        assert n_blocks(grid) == 100
        b = block_extent(grid, 0)
        assert (b.width, b.height) == (1.0, 1.0)

    def test_single_block_equals_extent(self):
        grid = BlockGrid(UNIT10, 1, 1)
        assert n_blocks(grid) == 1
        assert block_extent(grid, 0) == UNIT10

    def test_20x20_gives_400_half_blocks(self):
        grid = BlockGrid(UNIT10, 20, 20)
        assert n_blocks(grid) == 400
        b = block_extent(grid, 0)
        assert (b.width, b.height) == (0.5, 0.5)

    def test_zero_area_extent_rejected(self):
        with pytest.raises(ValidationError):
            BlockGrid(Rect(0, 0, 0, 5), 2, 2)

    def test_containment_assignment(self):
        grid = BlockGrid(UNIT10, 10, 10)
        u = TaskUnit("u", 3.5, 7.2)
        assert block_colrow(grid, assign_block(u, grid)) == (3, 7)

    def test_internal_boundary_half_open(self):
        grid = BlockGrid(UNIT10, 10, 10)
        assert block_colrow(grid, assign_block_point(4.0, 0.5, grid))[0] == 4

    def test_max_corner_closed(self):
        grid = BlockGrid(UNIT10, 10, 10)
        assert assign_block_point(10.0, 10.0, grid) == 99

    def test_outside_points_clamp(self):
        grid = BlockGrid(UNIT10, 10, 10)
        assert assign_block_point(-5.0, -5.0, grid) == 0
        assert assign_block_point(99.0, 99.0, grid) == 99

    def test_partition_property(self):
        grid = BlockGrid(UNIT10, 7, 3)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(500, 2))
        ids = [assign_block_point(x, y, grid) for x, y in pts]
        assert all(0 <= i < n_blocks(grid) for i in ids)
        # every point lands in the block whose extent contains it
        for (x, y), i in zip(pts, ids):
            b = block_extent(grid, i)
            assert b.x0 <= x <= b.x1 and b.y0 <= y <= b.y1

    def test_deterministic(self):
        grid = BlockGrid(UNIT10, 10, 10)
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


# ---------------------------------------------------------------------------
# Array paths: bit for bit the scalar functions, errors included

SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)
HEXGRIDS = st.builds(HexGrid, st.floats(-179.0, 179.0), st.floats(-80.0, 80.0),
                     st.sampled_from([150.0, 461.0, 900.0]))
OFFSETS = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1e-12, -1e-10])


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@SETTINGS
@given(grid=HEXGRIDS, offsets=st.lists(st.tuples(OFFSETS, OFFSETS), min_size=1, max_size=40))
def test_project_points_matches_project(grid, offsets):
    lons = [grid.lon0 + dx for dx, _ in offsets]
    lats = [grid.lat0 + dy for _, dy in offsets]
    x, y = project_points(grid, np.array(lons), np.array(lats))
    ref = [project(grid, lon, lat) for lon, lat in zip(lons, lats)]
    assert _bits(x) == _bits([p[0] for p in ref]) and _bits(y) == _bits([p[1] for p in ref])
    q, r = hex_cells_of(np.array(lons), np.array(lats), grid)
    assert list(zip(q.tolist(), r.tolist())) == [hex_cell_of(lon, lat, grid)
                                                 for lon, lat in zip(lons, lats)]


@SETTINGS
@given(grid=HEXGRIDS, spots=st.lists(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 5),
              st.sampled_from([0.0, 0.5, 1.0, 0.25]) | st.floats(0.0, 1.0)),
    min_size=1, max_size=30))
def test_hex_cells_match_scalar_on_edges_and_vertices(grid, spots):
    # points on cell boundaries, where the rounding ties: vertices (t = 0 or
    # 1), edge midpoints and points along an edge, in the plane and back
    # through the projection
    a = grid.edge_len_m
    xs, ys = [], []
    for q, r, i, t in spots:
        cx, cy = hex_cell_center_xy((q, r), grid)
        v0, v1 = math.radians(60.0 * i + 30.0), math.radians(60.0 * i + 90.0)
        xs.append(cx + a * ((1 - t) * math.cos(v0) + t * math.cos(v1)))
        ys.append(cy + a * ((1 - t) * math.sin(v0) + t * math.sin(v1)))
    q, r = hex_cells_of_xy(np.array(xs), np.array(ys), grid)
    assert list(zip(q.tolist(), r.tolist())) == [hex_cell_of_xy(x, y, grid) for x, y in zip(xs, ys)]
    lonlat = [unproject(grid, x, y) for x, y in zip(xs, ys)]
    q, r = hex_cells_of(np.array([p[0] for p in lonlat]), np.array([p[1] for p in lonlat]), grid)
    assert list(zip(q.tolist(), r.tolist())) == [hex_cell_of(lon, lat, grid) for lon, lat in lonlat]


def _first_scalar_error(grid, lons, lats) -> str:
    for lon, lat in zip(lons, lats):
        try:
            project(grid, lon, lat)
        except ValidationError as e:
            return str(e)
    raise AssertionError("no point fails")


@SETTINGS
@given(grid=HEXGRIDS, n=st.integers(1, 12), data=st.data())
def test_array_paths_raise_the_first_scalar_error(grid, n, data):
    lons = [grid.lon0 + 0.01 * i for i in range(n)]
    lats = [grid.lat0 - 0.01 * i for i in range(n)]
    far = grid.lat0 - 10.0 if grid.lat0 > 0 else grid.lat0 + 10.0  # about 1100 km
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, n - 1))
        bad = data.draw(st.sampled_from(["nan", "inf", "-inf", "far"]))
        if bad == "far":
            lats[i] = far
        elif data.draw(st.booleans()):
            lons[i] = float(bad)
        else:
            lats[i] = float(bad)
    message = _first_scalar_error(grid, lons, lats)
    for array_path in (lambda: project_points(grid, np.array(lons), np.array(lats)),
                       lambda: hex_cells_of(np.array(lons), np.array(lats), grid)):
        with pytest.raises(ValidationError) as e:
            array_path()
        assert str(e.value) == message


@SETTINGS
@given(extent=st.sampled_from([UNIT10, Rect(-0.1, -0.1, 0.1, 0.1), Rect(-0.0, 0.0, 3.0, 1e-3)]),
       nx=st.integers(1, 12), ny=st.integers(1, 12),
       points=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=30))
def test_assign_blocks_matches_assign_block_point(extent, nx, ny, points):
    grid = BlockGrid(extent, nx, ny)
    # points given as fractions of the extent, block edges among them
    pts = [(extent.x0 + fx * extent.width, extent.y0 + fy * extent.height) for fx, fy in points]
    pts += [(extent.x0 + c * extent.width / nx, extent.y0 + c * extent.height / ny)
            for c in range(max(nx, ny) + 1)]
    blocks = assign_blocks(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]), grid)
    assert blocks.tolist() == [assign_block_point(x, y, grid) for x, y in pts]
