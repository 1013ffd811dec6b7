"""Reference code the tests check the package against: the checked per-unit
`TaskUnit` that datasets were once built from, the per-unit synthetic-city
loop, scalar geometry that only tests call, and the CSV embedding and
factor readers that check one row at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from urbanbench.core import (CellTableSupport, EntitySetSupport, Rect, TaskDataset, ValidationError,
                             read_table)
from urbanbench.grid import EARTH_RADIUS_M, BlockGrid, HexGrid, hex_cell_center_xy, parse_hex_cell_key


def contains(rect: Rect, lon: float, lat: float) -> bool:
    return rect.x0 <= lon <= rect.x1 and rect.y0 <= lat <= rect.y1


@dataclass(frozen=True)
class TaskUnit:
    """One prediction target: a point or raster cell with a representative
    point, checked one rule at a time in the order of the unit rules of
    `core.task_row_rules`."""

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


# ---------------------------------------------------------------------------
# CSV readers, one row at a time: each row checked in full before the next.
# Their dialect (comments, blank lines, line numbers) is `read_table`'s.

def read_entity_csv(path) -> EntitySetSupport:
    """`align.read_entity_csv` row by row: a row's field count, its numbers,
    then the finiteness of its vector."""
    path = Path(path)
    _, lines, rows = read_table(path)
    if not rows:
        raise ValidationError(f"{path}: empty entity file")
    header, data = rows[0], list(zip(lines[1:], rows[1:]))
    dim = len(header) - 2
    if dim < 1 or header[:2] != ["key_or_lon", "lat"]:
        raise ValidationError(f"{path}: bad entity/cell-table header")
    values = []
    for ln, r in data:
        if len(r) != dim + 2:
            raise ValidationError(f"{path}:{ln}: expected {dim + 2} values, got {len(r)}")
        try:
            vec = [float(v) for v in r]
        except ValueError:
            raise ValidationError(f"{path}:{ln}: malformed entity row") from None
        if not all(map(math.isfinite, vec[2:])):
            raise ValidationError(f"{path}:{ln}: non-finite value")
        values.append(vec)
    values = np.array(values, dtype=np.float64).reshape(len(data), dim + 2)
    return EntitySetSupport(lons=values[:, 0], lats=values[:, 1], vectors=values[:, 2:])


def read_cell_table_csv(path) -> CellTableSupport:
    """`align.read_cell_table_csv` row by row: a row's key and numbers, the
    length of its vector, its finiteness, then a key no earlier row has."""
    path = Path(path)
    meta, lines, rows = read_table(path)
    grid = None
    if "hexgrid" in meta:
        line, text = meta["hexgrid"]
        try:
            lon0, lat0, edge = (float(v) for v in text.split())
            grid = HexGrid(lon0, lat0, edge)
        except ValueError as e:
            raise ValidationError(
                f"{path}:{line}: bad '# hexgrid lon0 lat0 edge_len_m' comment: {e}") from None
    if not rows:
        raise ValidationError(f"{path}: empty cell table")
    header, data = rows[0], list(zip(lines[1:], rows[1:]))
    dim = len(header) - 2
    if dim < 1 or header[:2] != ["key_or_lon", "lat"]:
        raise ValidationError(f"{path}: bad entity/cell-table header")
    table = {}
    for ln, r in data:
        try:
            cell = parse_hex_cell_key(r[0])
            vec = [float(v) for v in r[2:]]
        except (ValueError, IndexError):
            raise ValidationError(f"{path}:{ln}: malformed cell-table row") from None
        if len(vec) != dim:
            raise ValidationError(f"{path}:{ln}: expected {dim} components")
        if not all(map(math.isfinite, vec)):
            raise ValidationError(f"{path}:{ln}: non-finite value")
        if cell in table:
            raise ValidationError(f"{path}:{ln}: duplicate key {r[0]!r}")
        table[cell] = np.array(vec, dtype=np.float64)
    return CellTableSupport(grid=grid, table=table)


def read_factors(path) -> dict[str, dict[str, float]]:
    """`cli._read_factors` row by row: a row's field count, a nonempty city,
    a city no earlier row names, then each value: empty (missing) or a finite number."""
    path = Path(path)
    _, lines, rows = read_table(path)
    header = rows[0] if rows else []
    if header[:1] != ["city"]:
        raise ValidationError(f"{path}: factors header must start with 'city'")
    data = zip(lines[1:], rows[1:])
    names = header[1:]
    out: dict[str, dict[str, float]] = {n: {} for n in names}
    seen = set()
    for ln, r in data:
        if len(r) != len(header):
            raise ValidationError(f"{path}:{ln}: expected {len(header)} fields, got {len(r)}")
        if r[0] == "":
            raise ValidationError(f"{path}:{ln}: empty city")
        if r[0] in seen:
            raise ValidationError(f"{path}:{ln}: repeated city {r[0]!r}")
        seen.add(r[0])
        for n, v in zip(names, r[1:]):
            if v != "":
                try:
                    out[n][r[0]] = float(v)
                except ValueError:
                    raise ValidationError(f"{path}:{ln}: factor {n!r} value {v!r} is not a number") from None
                if not math.isfinite(out[n][r[0]]):
                    raise ValidationError(f"{path}:{ln}: factor {n!r} value {v!r} is not a finite number")
    return out
