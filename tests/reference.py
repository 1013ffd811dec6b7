"""Reference code the tests check the package against: the checked per-unit
`TaskUnit` that datasets were once built from, the per-unit synthetic-city
loop, and scalar geometry that only tests call."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from urbanbench.core import Rect, TaskDataset, ValidationError
from urbanbench.grid import EARTH_RADIUS_M, BlockGrid, HexGrid, hex_cell_center_xy


def contains(rect: Rect, lon: float, lat: float) -> bool:
    return rect.x0 <= lon <= rect.x1 and rect.y0 <= lat <= rect.y1


@dataclass(frozen=True)
class TaskUnit:
    """One prediction target: a point or raster cell with a representative
    point, checked one rule at a time in the order `bad_unit_rows` keeps."""

    unit_id: str
    lon: float
    lat: float
    geometry_kind: str = "point"
    cell_extent: Rect | None = None

    def __post_init__(self):
        if not self.unit_id:
            raise ValidationError("unit_id must be nonempty")
        if any(c in self.unit_id for c in ',"\r\n'):
            raise ValidationError(f"unit_id {self.unit_id!r} contains ',', '\"', CR or LF")
        if self.geometry_kind not in ("point", "raster_cell"):
            raise ValidationError(f"unknown geometry kind {self.geometry_kind!r}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValidationError(f"unit {self.unit_id}: lon {self.lon} out of [-180,180]")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"unit {self.unit_id}: lat {self.lat} out of [-90,90]")
        if self.geometry_kind == "raster_cell":
            e = self.cell_extent
            if e is None or not e.nondegenerate:
                raise ValidationError(f"unit {self.unit_id}: raster_cell requires a nonempty cell_extent")
            if not contains(e, self.lon, self.lat):
                raise ValidationError(f"unit {self.unit_id}: cell_extent does not contain its point")
        elif self.cell_extent is not None:
            raise ValidationError(f"unit {self.unit_id}: cell_extent only allowed for raster_cell units")


def dataset(city: str, task: str, units, labels, extent: Rect, n_classes: int | None = None) -> TaskDataset:
    """The TaskDataset of a sequence of TaskUnits: their columns."""
    units = list(units)
    cells = [(math.nan,) * 4 if u.cell_extent is None else
             (u.cell_extent.x0, u.cell_extent.y0, u.cell_extent.x1, u.cell_extent.y1) for u in units]
    return TaskDataset(city, task, [u.unit_id for u in units], [u.lon for u in units],
                       [u.lat for u in units], np.array(cells, dtype=np.float64).reshape(-1, 4),
                       labels, extent, n_classes=n_classes)


def units_of(ds: TaskDataset) -> tuple[TaskUnit, ...]:
    """The TaskUnits of a dataset's columns."""
    return tuple(TaskUnit(uid, lon, lat, "raster_cell", Rect(*ce)) if cell else TaskUnit(uid, lon, lat)
                 for uid, lon, lat, ce, cell in zip(ds.unit_ids, ds.lons.tolist(), ds.lats.tolist(),
                                                    ds.cell_extents.tolist(), ds.is_cell.tolist()))


def synth_units(extent: Rect, n: int) -> list[TaskUnit]:
    """The units of an n x n synthetic city, one cell at a time, row by row."""
    dx = extent.width / n
    dy = extent.height / n
    units = []
    for iy in range(n):
        for ix in range(n):
            cell = Rect(extent.x0 + ix * dx, extent.y0 + iy * dy,
                        extent.x0 + (ix + 1) * dx, extent.y0 + (iy + 1) * dy)
            units.append(TaskUnit(unit_id=f"c{iy:03d}_{ix:03d}",
                                  lon=extent.x0 + (ix + 0.5) * dx, lat=extent.y0 + (iy + 0.5) * dy,
                                  geometry_kind="raster_cell", cell_extent=cell))
    return units


# ---------------------------------------------------------------------------
# Block grids and the hex projection, one block or point at a time

def n_blocks(grid: BlockGrid) -> int:
    return grid.nx * grid.ny


def block_id(grid: BlockGrid, col: int, row: int) -> int:
    return row * grid.nx + col


def block_colrow(grid: BlockGrid, block: int) -> tuple[int, int]:
    return (block % grid.nx, block // grid.nx)


def block_extent(grid: BlockGrid, block: int) -> Rect:
    col, row = block_colrow(grid, block)
    dx = grid.extent.width / grid.nx
    dy = grid.extent.height / grid.ny
    return Rect(grid.extent.x0 + col * dx, grid.extent.y0 + row * dy,
                grid.extent.x0 + (col + 1) * dx, grid.extent.y0 + (row + 1) * dy)


def unproject(grid: HexGrid, x: float, y: float) -> tuple[float, float]:
    """The inverse of `grid.project`."""
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


def hex_cell_center(cell: tuple[int, int], grid: HexGrid) -> tuple[float, float]:
    x, y = hex_cell_center_xy(cell, grid)
    return unproject(grid, x, y)
