"""Block grids for spatial splitting plus a hexagonal intermediate support.

The hex support approximates H3 resolution-8 cells with an axial hexagonal
tessellation in a per-city azimuthal-equidistant projection; cells use the
published mean res-8 edge length (461 m). All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Rect, TaskUnit, ValidationError

EARTH_RADIUS_M = 6_371_000.0
H3_RES8_EDGE_M = 461.0
PROJECTION_VALIDITY_M = 500_000.0

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class BlockGrid:
    """nx*ny rectangular blocks tiling an extent; half-open, max edge closed."""

    extent: Rect
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("block grid needs nx >= 1 and ny >= 1")
        if not self.extent.nondegenerate:
            raise ValidationError("block grid extent must have positive area")

    @property
    def n_blocks(self) -> int:
        return self.nx * self.ny

    def block_id(self, col: int, row: int) -> int:
        return row * self.nx + col

    def block_colrow(self, block_id: int) -> tuple[int, int]:
        return (block_id % self.nx, block_id // self.nx)

    def block_extent(self, block_id: int) -> Rect:
        col, row = self.block_colrow(block_id)
        dx = self.extent.width / self.nx
        dy = self.extent.height / self.ny
        return Rect(self.extent.x0 + col * dx, self.extent.y0 + row * dy,
                    self.extent.x0 + (col + 1) * dx, self.extent.y0 + (row + 1) * dy)

    def signature(self) -> tuple:
        e = self.extent
        return (e.x0, e.y0, e.x1, e.y1, self.nx, self.ny)


def build_block_grid(extent: Rect, nx: int, ny: int) -> BlockGrid:
    return BlockGrid(extent, nx, ny)


def assign_block_point(lon: float, lat: float, grid: BlockGrid) -> int:
    """Block id of a point; points outside the extent clamp to the boundary."""
    e = grid.extent
    lon = min(max(lon, e.x0), e.x1)
    lat = min(max(lat, e.y0), e.y1)
    col = min(int((lon - e.x0) / e.width * grid.nx), grid.nx - 1)
    row = min(int((lat - e.y0) / e.height * grid.ny), grid.ny - 1)
    return grid.block_id(col, row)


def assign_block(unit: TaskUnit, grid: BlockGrid) -> int:
    return assign_block_point(unit.lon, unit.lat, grid)


# ---------------------------------------------------------------------------
# Local projection and hex cells

@dataclass(frozen=True)
class HexGrid:
    """Pointy-top axial hex tessellation around a lon/lat anchor."""

    lon0: float
    lat0: float
    edge_len_m: float = H3_RES8_EDGE_M

    def __post_init__(self):
        if not (math.isfinite(self.lon0) and math.isfinite(self.lat0)):
            raise ValidationError("hex grid anchor must be finite")
        if not (0 < self.edge_len_m < math.inf):
            raise ValidationError("hex edge length must be positive and finite")

    def signature(self) -> tuple:
        return (self.lon0, self.lat0, self.edge_len_m)


def project(grid: HexGrid, lon: float, lat: float) -> tuple[float, float]:
    """Azimuthal-equidistant meters about the grid anchor.

    Valid to PROJECTION_VALIDITY_M from the anchor; beyond that the local
    plane no longer approximates distances and an error is raised.
    """
    if not (math.isfinite(lon) and math.isfinite(lat)):
        raise ValidationError(f"point ({lon},{lat}) is not finite")
    lam0, phi0 = math.radians(grid.lon0), math.radians(grid.lat0)
    lam, phi = math.radians(lon), math.radians(lat)
    dlam = lam - lam0
    cos_c = math.sin(phi0) * math.sin(phi) + math.cos(phi0) * math.cos(phi) * math.cos(dlam)
    c = math.acos(min(1.0, max(-1.0, cos_c)))
    if c * EARTH_RADIUS_M > PROJECTION_VALIDITY_M:
        raise ValidationError(
            f"point ({lon},{lat}) is {c * EARTH_RADIUS_M / 1000:.0f} km from the hex grid "
            f"anchor; beyond the {PROJECTION_VALIDITY_M / 1000:.0f} km validity radius"
        )
    k = 1.0 + c * c / 6.0 if c < 1e-9 else c / math.sin(c)
    x = EARTH_RADIUS_M * k * math.cos(phi) * math.sin(dlam)
    y = EARTH_RADIUS_M * k * (math.cos(phi0) * math.sin(phi)
                              - math.sin(phi0) * math.cos(phi) * math.cos(dlam))
    return (x, y)


def unproject(grid: HexGrid, x: float, y: float) -> tuple[float, float]:
    lam0, phi0 = math.radians(grid.lon0), math.radians(grid.lat0)
    rho = math.hypot(x, y)
    if rho == 0.0:
        return (grid.lon0, grid.lat0)
    c = rho / EARTH_RADIUS_M
    sin_c, cos_c = math.sin(c), math.cos(c)
    phi = math.asin(cos_c * math.sin(phi0) + y * sin_c * math.cos(phi0) / rho)
    lam = lam0 + math.atan2(x * sin_c,
                            rho * math.cos(phi0) * cos_c - y * math.sin(phi0) * sin_c)
    return (math.degrees(lam), math.degrees(phi))


def _axial_round(qf: float, rf: float) -> tuple[int, int]:
    # cube rounding; fixes the axis with the largest rounding error
    xf, zf = qf, rf
    yf = -xf - zf
    x, y, z = round(xf), round(yf), round(zf)
    dx, dy, dz = abs(x - xf), abs(y - yf), abs(z - zf)
    if dx > dy and dx > dz:
        x = -y - z
    elif dy > dz:
        y = -x - z
    else:
        z = -x - y
    return (int(x), int(z))


def hex_cell_of(lon: float, lat: float, grid: HexGrid) -> tuple[int, int]:
    """Axial (q, r) id of the hex cell whose center is nearest in the projected plane."""
    x, y = project(grid, lon, lat)
    return hex_cell_of_xy(x, y, grid)


def hex_axial_xy(x: float, y: float, grid: HexGrid) -> tuple[float, float]:
    """Fractional axial (q, r) of a projected point; elementwise on numpy arrays."""
    a = grid.edge_len_m
    return ((_SQRT3 / 3.0 * x - y / 3.0) / a, (2.0 / 3.0 * y) / a)


def hex_cell_of_xy(x: float, y: float, grid: HexGrid) -> tuple[int, int]:
    return _axial_round(*hex_axial_xy(x, y, grid))


def hex_cell_center_xy(cell: tuple[int, int], grid: HexGrid) -> tuple[float, float]:
    """Projected center of the cell; elementwise on a pair of integer arrays."""
    q, r = cell
    a = grid.edge_len_m
    return (a * (_SQRT3 * q + _SQRT3 / 2.0 * r), a * 1.5 * r)


def hex_cell_center(cell: tuple[int, int], grid: HexGrid) -> tuple[float, float]:
    x, y = hex_cell_center_xy(cell, grid)
    return unproject(grid, x, y)


def hex_cell_key(cell: tuple[int, int]) -> str:
    return f"{cell[0]}:{cell[1]}"


def parse_hex_cell_key(key: str) -> tuple[int, int]:
    try:
        q, r = key.split(":")
        return (int(q), int(r))
    except ValueError:
        raise ValidationError(f"malformed hex cell key {key!r}") from None
