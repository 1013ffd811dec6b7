"""Reference code the tests check the package against: the checked per-unit
`TaskUnit` that datasets were once built from, the per-unit synthetic-city
loop, scalar geometry that only tests call, the CSV embedding, factor and
result-store readers that check one row at a time, and the CSV writers that
format one value and write one row at a time."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from urbanbench.cli import PROTOCOLS, STORE_HEADER
from urbanbench.core import (METRICS_FOR_KIND, TASK_LABEL_KIND, CellTableSupport, EntitySetSupport, Rect,
                             ResultRecord, TaskDataset, ValidationError, _fmt, read_table)
from urbanbench.grid import (EARTH_RADIUS_M, BlockGrid, HexGrid, hex_cell_center_xy, hex_cell_key,
                             parse_hex_cell_key)


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

def strict(text: str) -> str:
    """A field a parser may read: printable ASCII other than space and '_'."""
    for c in text:
        if not " " < c <= "~" or c == "_":
            raise ValueError(f"{text!r} holds {c!r}")
    return text


def _read_row(path, ln: int, header, row: list[str], parsers) -> list:
    """One row's fields through their column's parser (None keeps the text):
    its field count first, then its fields in column order."""
    if len(row) != len(header):
        raise ValidationError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
    out = []
    for name, parse, text in zip(header, parsers, row):
        try:
            out.append(text if parse is None else parse(strict(text)))
        except (ValueError, OverflowError) as e:
            raise ValidationError(f"{path}:{ln}: column {name!r}: {e}") from None
    return out


def read_entity_csv(path) -> EntitySetSupport:
    """`align.read_entity_csv` row by row: a row's fields, the finiteness of
    its coordinates, then of its vector."""
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
        vec = _read_row(path, ln, header, r, [float] * len(header))
        if not (math.isfinite(vec[0]) and math.isfinite(vec[1])):
            raise ValidationError(f"{path}:{ln}: non-finite coordinate")
        if not all(map(math.isfinite, vec[2:])):
            raise ValidationError(f"{path}:{ln}: non-finite value")
        values.append(vec)
    values = np.array(values, dtype=np.float64).reshape(len(data), dim + 2)
    return EntitySetSupport(lons=values[:, 0], lats=values[:, 1], vectors=values[:, 2:])


def _empty(text: str) -> str:
    if text != "":
        raise ValueError(f"expected an empty field, got {text!r}")
    return text


def read_cell_table_csv(path) -> CellTableSupport:
    """`align.read_cell_table_csv` row by row: a row's fields (a key, an
    empty lat, numbers), the finiteness of its vector, then a key no earlier
    row has."""
    path = Path(path)
    meta, lines, rows = read_table(path)
    grid = None
    if "hexgrid" in meta:
        line, text = meta["hexgrid"]
        try:
            lon0, lat0, edge = (float(strict(v)) for v in text.split())
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
        cell, _, *vec = _read_row(path, ln, header, r, [parse_hex_cell_key, _empty] + [float] * dim)
        if not all(map(math.isfinite, vec)):
            raise ValidationError(f"{path}:{ln}: non-finite value")
        if cell in table:
            raise ValidationError(f"{path}:{ln}: duplicate key {r[0]!r}")
        table[cell] = np.array(vec, dtype=np.float64)
    return CellTableSupport(grid=grid, table=table)


def read_factors(path) -> dict[str, dict[str, float]]:
    """`cli._read_factors` row by row: a row's fields (a city, then numbers or
    empty for missing), a nonempty city, a city no earlier row names, then
    each given value finite."""
    path = Path(path)
    _, lines, rows = read_table(path)
    header = rows[0] if rows else []
    if header[:1] != ["city"]:
        raise ValidationError(f"{path}: factors header must start with 'city'")
    names = header[1:]
    out: dict[str, dict[str, float]] = {n: {} for n in names}
    seen = set()
    for ln, r in zip(lines[1:], rows[1:]):
        city, *values = _read_row(path, ln, header, r, [None] + [lambda v: float(v) if v else None] * len(names))
        if city == "":
            raise ValidationError(f"{path}:{ln}: empty city")
        if city in seen:
            raise ValidationError(f"{path}:{ln}: repeated city {city!r}")
        seen.add(city)
        for n, text, v in zip(names, r[1:], values):
            if v is not None and not math.isfinite(v):
                raise ValidationError(f"{path}:{ln}: factor {n!r} value {text!r} is not a finite number")
            if v is not None:
                out[n][city] = v
    return out


def read_result_store(path) -> list[ResultRecord]:
    """`cli.read_result_store` row by row: a row's fields (an int seed and
    n_test, a float value), a known task and protocol, a metric of the task's
    kind, n_test >= 1, then a key no earlier row has."""
    path = Path(path)
    _, lines, rows = read_table(path)
    if rows[:1] != [list(STORE_HEADER)]:
        raise ValidationError(f"{path}: unexpected result store header {rows[0] if rows else None}")
    records, keys = [], set()
    for ln, r in zip(lines[1:], rows[1:]):
        fields = _read_row(path, ln, STORE_HEADER, r, (None, None, None, int, None, None, float, int))
        record = ResultRecord(*fields)
        if record.task not in TASK_LABEL_KIND:
            raise ValidationError(f"{path}:{ln}: unknown task {record.task!r}")
        if record.protocol not in PROTOCOLS:
            raise ValidationError(f"{path}:{ln}: unknown protocol {record.protocol!r}")
        if record.metric not in METRICS_FOR_KIND[TASK_LABEL_KIND[record.task]]:
            raise ValidationError(f"{path}:{ln}: metric {record.metric!r} is not a {record.task} metric")
        if record.n_test < 1:
            raise ValidationError(f"{path}:{ln}: n_test {record.n_test} < 1")
        key = (record.model_id, record.task, record.city, record.seed, record.protocol, record.metric)
        if key in keys:
            raise ValidationError(f"{path}:{ln}: repeated (model, task, city, seed, protocol, metric) key")
        keys.add(key)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# CSV writers, one value and one row at a time

def write_task_dataset(path, ds: TaskDataset) -> None:
    """`core.write_task_dataset` as one string of LF lines, each value through `_fmt`."""
    path = Path(path)
    has_extent = bool(ds.is_cell.any())
    if has_extent and not ds.is_cell.all():
        uid = ds.unit_ids[int(np.argmin(ds.is_cell))]
        raise ValidationError(f"unit {uid}: mixed geometries in raster_cell dataset")
    lines = [f"# task {ds.task}", f"# city {ds.city}",
             f"# extent {_fmt(ds.extent.x0)} {_fmt(ds.extent.y0)} {_fmt(ds.extent.x1)} {_fmt(ds.extent.y1)}"]
    if ds.label_kind == "class":
        lines.append(f"# classes {ds.n_classes}")
    header = ["unit_id", "lon", "lat"]
    if has_extent:
        header += ["x0", "y0", "x1", "y1"]
    if ds.label_kind == "scalar":
        header.append("value")
    elif ds.label_kind == "class":
        header.append("class")
    else:
        header += [f"p_{i}" for i in range(ds.n_classes)]
    lines.append(",".join(header))
    coords = np.column_stack([ds.lons, ds.lats, *(ds.cell_extents.T if has_extent else ())])
    labels = ds.labels[:, None] if ds.labels.ndim == 1 else ds.labels
    fmt_label = str if ds.label_kind == "class" else _fmt
    for uid, xy, lab in zip(ds.unit_ids, coords.tolist(), labels.tolist()):
        lines.append(",".join([uid, *map(_fmt, xy), *map(fmt_label, lab)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_entity_csv(path, rep: EntitySetSupport) -> None:
    """`align.write_entity_csv` through `csv.writer` (CRLF lines), one row at a time."""
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["key_or_lon", "lat"] + [f"v_{j}" for j in range(rep.dim)])
        for j in range(rep.n):
            w.writerow([_fmt(rep.lons[j]), _fmt(rep.lats[j])] + [_fmt(v) for v in rep.vectors[j]])


def write_cell_table_csv(path, rep: CellTableSupport) -> None:
    """`align.write_cell_table_csv` through `csv.writer` (CRLF lines), one row at a time."""
    g = rep.grid
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        if g is not None:
            f.write(f"# hexgrid {g.lon0!r} {g.lat0!r} {g.edge_len_m!r}\n")
        w = csv.writer(f)
        w.writerow(["key_or_lon", "lat"] + [f"v_{j}" for j in range(rep.dim)])
        for cell in sorted(rep.table):
            w.writerow([hex_cell_key(cell), ""] + [_fmt(v) for v in rep.table[cell]])
