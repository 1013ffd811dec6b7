"""Block grids for spatial splitting plus a hexagonal intermediate support.

The hex support approximates H3 resolution-8 cells with an axial hexagonal
tessellation in a per-city azimuthal-equidistant projection; cells use the
published mean res-8 edge length (461 m). All functions here are pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import CheckedRecord, Rect, ValidationError

EARTH_RADIUS_M = 6_371_000.0
H3_RES8_EDGE_M = 461.0
PROJECTION_VALIDITY_M = 500_000.0

_SQRT3 = math.sqrt(3.0)


class _BlockGrid(NamedTuple):
    extent: Rect
    nx: int
    ny: int


class BlockGrid(CheckedRecord, _BlockGrid):
    """nx*ny rectangular blocks tiling an extent; half-open, max edge closed."""

    __slots__ = ()

    def _check(self):
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("block grid needs nx >= 1 and ny >= 1")
        if not self.extent.nondegenerate:
            raise ValidationError("block grid extent must have positive area")

    def signature(self) -> tuple:
        e = self.extent
        return (e.x0, e.y0, e.x1, e.y1, self.nx, self.ny)


def assign_blocks(lons: np.ndarray, lats: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Block id of every point; points outside the extent clamp to the boundary.

    Half-open blocks with the max edge closed: a point is clipped into the
    extent, then its column is the truncated fraction of the width times nx,
    capped at nx - 1 (rows likewise)."""
    e = grid.extent
    col = np.minimum(((np.clip(lons, e.x0, e.x1) - e.x0) / e.width * grid.nx).astype(np.int64),
                     grid.nx - 1)
    row = np.minimum(((np.clip(lats, e.y0, e.y1) - e.y0) / e.height * grid.ny).astype(np.int64),
                     grid.ny - 1)
    return row * grid.nx + col


# ---------------------------------------------------------------------------
# Local projection and hex cells

class _HexGrid(NamedTuple):
    lon0: float
    lat0: float
    edge_len_m: float = H3_RES8_EDGE_M


class HexGrid(CheckedRecord, _HexGrid):
    """Pointy-top axial hex tessellation around a lon/lat anchor."""

    __slots__ = ()

    def _check(self):
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


def project_points(grid: HexGrid, lons: np.ndarray, lats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`project` of every point, bit for bit: the sums and products are numpy's
    (IEEE, as Python's), and every sin, cos and acos is libm's, taken per
    element through `math`. The first point `project` rejects raises its error."""
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    ok = np.isfinite(lons) & np.isfinite(lats)
    lam0, phi0 = math.radians(grid.lon0), math.radians(grid.lat0)
    # math.radians multiplies by pi / 180; a non-finite point stands at the anchor
    lam = np.where(ok, lons, grid.lon0) * (math.pi / 180.0)
    phi = np.where(ok, lats, grid.lat0) * (math.pi / 180.0)
    dlam = lam - lam0
    sin_phi, cos_phi = _libm(math.sin, phi), _libm(math.cos, phi)
    sin_dlam, cos_dlam = _libm(math.sin, dlam), _libm(math.cos, dlam)
    cos_c = math.sin(phi0) * sin_phi + math.cos(phi0) * cos_phi * cos_dlam
    c = _libm(math.acos, np.clip(cos_c, -1.0, 1.0))
    bad = ~ok | (c * EARTH_RADIUS_M > PROJECTION_VALIDITY_M)
    if bad.any():
        i = int(np.argmax(bad))
        project(grid, float(lons[i]), float(lats[i]))  # raises
    series = c < 1e-9
    k = np.where(series, 1.0 + c * c / 6.0, c / _libm(math.sin, np.where(series, 1.0, c)))
    x = EARTH_RADIUS_M * k * cos_phi * sin_dlam
    y = EARTH_RADIUS_M * k * (math.cos(phi0) * sin_phi - math.sin(phi0) * cos_phi * cos_dlam)
    return x, y


def _libm(f, a: np.ndarray) -> np.ndarray:
    """A `math` function of every element, as a float64 array."""
    return np.fromiter(map(f, a.tolist()), np.float64, a.size)


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


def hex_cells_of(lons: np.ndarray, lats: np.ndarray, grid: HexGrid) -> tuple[np.ndarray, np.ndarray]:
    """`hex_cell_of` of every point, as (q, r) int64 arrays."""
    return hex_cells_of_xy(*project_points(grid, lons, lats), grid)


def hex_cells_of_xy(x: np.ndarray, y: np.ndarray, grid: HexGrid) -> tuple[np.ndarray, np.ndarray]:
    """`hex_cell_of_xy` of every projected point: `_axial_round` on arrays,
    where np.rint rounds half to even as round() does."""
    qf, rf = hex_axial_xy(x, y, grid)
    sf = -qf - rf
    q, s, r = np.rint(qf), np.rint(sf), np.rint(rf)
    dq, ds, dr = np.abs(q - qf), np.abs(s - sf), np.abs(r - rf)
    fix_q = (dq > ds) & (dq > dr)
    fix_r = ~fix_q & ~(ds > dr)
    return (np.where(fix_q, -s - r, q).astype(np.int64),
            np.where(fix_r, -q - s, r).astype(np.int64))


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


def hex_cell_key(cell: tuple[int, int]) -> str:
    return f"{cell[0]}:{cell[1]}"


def parse_hex_cell_key(key: str) -> tuple[int, int]:
    try:
        q, r = key.split(":")
        return (int(q), int(r))
    except ValueError:
        raise ValidationError(f"malformed hex cell key {key!r}") from None
