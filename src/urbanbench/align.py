"""Map representations onto task units, producing aligned feature matrices.

Alignment rules by support kind:
  raster       -> aggregate finer cells into the unit, or share a coarser
                  cell's vector with every unit it covers
  entity_set   -> mean-pool entities into hex cells first (h3-first) or
                  directly into unit extents (the ablation arm)
  cell_table   -> hex-cell lookup at the unit's representative point
  coordinate   -> query the encoder at every representative coordinate in one call

Also owns the embedding file formats: the ".erf" raster container and the
CSV entity-set / cell-table formats.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CellTableSupport,
    CoordinateEncoderSupport,
    EntitySetSupport,
    RasterSupport,
    TaskDataset,
    ValidationError,
    _fmt,
    open_text,
)
from .grid import (
    HexGrid,
    hex_cell_key,
    hex_axial_xy,
    hex_cell_of,
    hex_cell_vertices_xy,
    parse_hex_cell_key,
    project,
)


@dataclass(frozen=True)
class AlignedMatrix:
    """Per-task-unit feature rows with a validity mask.

    Rows with valid=False are excluded from all downstream training and
    metrics; valid rows are always finite.
    """

    model_id: str
    rows: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.rows.ndim != 2 or self.valid.shape != (self.rows.shape[0],):
            raise ValidationError("aligned matrix shape mismatch")
        if self.rows[self.valid].size and not np.all(np.isfinite(self.rows[self.valid])):
            raise ValidationError("valid rows must be finite")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def coverage(m: AlignedMatrix) -> float:
    """Fraction of task units that received a valid feature row."""
    if m.n == 0:
        raise ValidationError("coverage undefined for an empty matrix")
    return float(np.count_nonzero(m.valid)) / m.n


def _align_units(model_id: str, task: TaskDataset, dim: int, vec_of) -> AlignedMatrix:
    """One row per task unit from `vec_of(unit)`; a unit it maps to None is
    invalid and keeps a zero row."""
    rows = np.zeros((task.n, dim), dtype=np.float64)
    valid = np.zeros(task.n, dtype=bool)
    for i, unit in enumerate(task.units):
        vec = vec_of(unit)
        if vec is not None:
            rows[i] = vec
            valid[i] = True
    return _read_only(model_id, rows, valid)


def _read_only(model_id: str, rows: np.ndarray, valid: np.ndarray) -> AlignedMatrix:
    rows.setflags(write=False)
    valid.setflags(write=False)
    return AlignedMatrix(model_id=model_id, rows=rows, valid=valid)


# ---------------------------------------------------------------------------
# Raster alignment

def align_raster(rep: RasterSupport, task: TaskDataset, model_id: str = "raster") -> AlignedMatrix:
    """Align a raster representation to the task units.

    Units coarser than the raster average the vectors of all valid raster
    cells whose centers fall inside the unit extent. When no raster center
    falls inside (raster coarser than the unit, or a point unit), the unit
    shares the vector of the raster cell containing its representative
    point. Units touching no valid raster cell become invalid.
    """
    def vec_of(unit):
        if unit.geometry_kind == "raster_cell":
            ce = unit.cell_extent
            c_lo = max(0, math.ceil((ce.x0 - rep.x0) / rep.dx - 0.5))
            c_hi = min(rep.ncols - 1, math.floor((ce.x1 - rep.x0) / rep.dx - 0.5))
            r_lo = max(0, math.ceil((ce.y0 - rep.y0) / rep.dy - 0.5))
            r_hi = min(rep.nrows - 1, math.floor((ce.y1 - rep.y0) / rep.dy - 0.5))
            if c_hi >= c_lo and r_hi >= r_lo:
                block = rep.values[r_lo:r_hi + 1, c_lo:c_hi + 1].reshape(-1, rep.dim)
                ok = ~np.any(np.isnan(block), axis=1)
                # drop centers exactly on the closed max edge of the unit extent
                if np.any(ok):
                    cx = rep.x0 + (np.arange(c_lo, c_hi + 1) + 0.5) * rep.dx
                    cy = rep.y0 + (np.arange(r_lo, r_hi + 1) + 0.5) * rep.dy
                    inside = ((cx[None, :] >= ce.x0) & (cx[None, :] < ce.x1)
                              & (cy[:, None] >= ce.y0) & (cy[:, None] < ce.y1)).reshape(-1)
                    ok &= inside
                if np.any(ok):
                    return block[ok].mean(axis=0)
        idx = rep.cell_index(unit.lon, unit.lat)
        if idx is None:
            return None
        vec = rep.values[idx[0], idx[1]]
        return None if np.any(np.isnan(vec)) else vec

    return _align_units(model_id, task, rep.dim, vec_of)


# ---------------------------------------------------------------------------
# Entity alignment

def _pool_entities_by_hex(rep: EntitySetSupport, hexgrid: HexGrid) -> dict[tuple[int, int], np.ndarray]:
    sums: dict[tuple[int, int], np.ndarray] = {}
    counts: dict[tuple[int, int], int] = {}
    for j in range(rep.n):
        cell = hex_cell_of(float(rep.lons[j]), float(rep.lats[j]), hexgrid)
        if cell in sums:
            sums[cell] = sums[cell] + rep.vectors[j]
            counts[cell] += 1
        else:
            sums[cell] = rep.vectors[j].astype(np.float64)
            counts[cell] = 1
    return {c: sums[c] / counts[c] for c in sums}


def _convex_overlap(poly_a: list[tuple[float, float]], poly_b: list[tuple[float, float]]) -> bool:
    """Separating-axis test between two convex polygons (closed regions)."""
    for poly in (poly_a, poly_b):
        m = len(poly)
        for i in range(m):
            ex = poly[(i + 1) % m][0] - poly[i][0]
            ey = poly[(i + 1) % m][1] - poly[i][1]
            ax, ay = -ey, ex
            a_proj = [ax * px + ay * py for px, py in poly_a]
            b_proj = [ax * px + ay * py for px, py in poly_b]
            if max(a_proj) < min(b_proj) or max(b_proj) < min(a_proj):
                return False
    return True


def _hex_cells_intersecting(ce, hexgrid: HexGrid) -> list[tuple[int, int]]:
    """Hex cells whose closed hexagon overlaps the (projected) unit rectangle, sorted."""
    corners = [project(hexgrid, x, y)
               for x, y in ((ce.x0, ce.y0), (ce.x1, ce.y0), (ce.x1, ce.y1), (ce.x0, ce.y1))]
    qs, rs = zip(*(hex_axial_xy(x, y, hexgrid) for x, y in corners))
    # A closed hexagon spans at most 2/3 in each axial coordinate about its
    # cell, so every cell that can reach the quad lies in the corners'
    # fractional range padded by 1.
    return [(q, r)
            for q in range(math.ceil(min(qs) - 1), math.floor(max(qs) + 1) + 1)
            for r in range(math.ceil(min(rs) - 1), math.floor(max(rs) + 1) + 1)
            if _convex_overlap(hex_cell_vertices_xy((q, r), hexgrid), corners)]


def align_entities_h3_first(
    rep: EntitySetSupport, hexgrid: HexGrid, task: TaskDataset, model_id: str = "entities"
) -> AlignedMatrix:
    """Mean-pool entities into hex cells, then match cells to task units.

    Point-like units take their containing cell's pooled vector; raster
    cells take the mean over intersecting hex cells that received
    entities. Units whose cell(s) received no entities become invalid.
    """
    if rep.n == 0:
        warnings.warn("empty entity set: all task units invalid", stacklevel=2)
        return _align_units(model_id, task, rep.dim, lambda unit: None)
    pooled = _pool_entities_by_hex(rep, hexgrid)

    def vec_of(unit):
        if unit.geometry_kind == "raster_cell":
            vecs = [pooled[c] for c in _hex_cells_intersecting(unit.cell_extent, hexgrid)
                    if c in pooled]
            return np.mean(vecs, axis=0) if vecs else None
        return pooled.get(hex_cell_of(unit.lon, unit.lat, hexgrid))

    return _align_units(model_id, task, rep.dim, vec_of)


def align_entities_direct(
    rep: EntitySetSupport, task: TaskDataset, model_id: str = "entities"
) -> AlignedMatrix:
    """Mean entity vectors inside each unit's own extent (no intermediate support).

    Point units carry no containment region and are always invalid; this is
    the ablation arm that h3-first aggregation is compared against.
    """
    if rep.n == 0:
        warnings.warn("empty entity set: all task units invalid", stacklevel=2)
        return _align_units(model_id, task, rep.dim, lambda unit: None)
    lons = np.asarray(rep.lons, dtype=np.float64)
    lats = np.asarray(rep.lats, dtype=np.float64)

    def vec_of(unit):
        ce = unit.cell_extent
        if ce is None:
            return None
        inside = (lons >= ce.x0) & (lons < ce.x1) & (lats >= ce.y0) & (lats < ce.y1)
        return rep.vectors[inside].mean(axis=0) if np.any(inside) else None

    return _align_units(model_id, task, rep.dim, vec_of)


def align_cell_table(rep: CellTableSupport, task: TaskDataset, model_id: str = "table") -> AlignedMatrix:
    """Look up each unit's containing hex cell in the keyed table."""
    return _align_units(model_id, task, rep.dim,
                        lambda unit: rep.table.get(hex_cell_of(unit.lon, unit.lat, rep.grid)))


def align_coordinate_encoder(
    enc: CoordinateEncoderSupport, task: TaskDataset, model_id: str | None = None
) -> AlignedMatrix:
    """Query the encoder once, at every unit's representative coordinate."""
    rows = np.asarray(enc.fn(np.array([u.lon for u in task.units], dtype=np.float64),
                             np.array([u.lat for u in task.units], dtype=np.float64)),
                      dtype=np.float64)
    if rows.shape != (task.n, enc.dim):
        raise ValidationError(
            f"encoder {enc.encoder_id} returned shape {rows.shape}, expected {(task.n, enc.dim)}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
    if bad.size:
        raise ValidationError(f"encoder {enc.encoder_id} returned non-finite values "
                              f"for unit {task.units[bad[0]].unit_id}")
    return _read_only(model_id or enc.encoder_id, rows, np.ones(task.n, dtype=bool))


# ---------------------------------------------------------------------------
# Embedding raster format (".erf")

_ERF_MAGIC = "erf1"


def write_erf(path: str | Path, rep: RasterSupport) -> None:
    """Header line `erf1 x0 y0 dx dy ncols nrows dim`, then little-endian
    float32 values, row-major, dim-interleaved per cell."""
    path = Path(path)
    header = (f"{_ERF_MAGIC} {rep.x0!r} {rep.y0!r} {rep.dx!r} {rep.dy!r} "
              f"{rep.ncols} {rep.nrows} {rep.dim}\n")
    body = np.ascontiguousarray(rep.values, dtype="<f4").tobytes()
    with path.open("wb") as f:
        f.write(header.encode("ascii"))
        f.write(body)


def _read_erf_header(path: Path, f) -> tuple:
    """(x0, y0, dx, dy, ncols, nrows, dim) from the header line of an open erf file."""
    header = f.readline()
    if not header.endswith(b"\n"):
        raise ValidationError(f"{path}: truncated erf header")
    try:  # ValidationError and UnicodeDecodeError are ValueErrors: each gets the path
        fields = header.decode("ascii").split()
        if len(fields) != 8 or fields[0] != _ERF_MAGIC:
            raise ValidationError("not an erf1 file")
        return (*(float(v) for v in fields[1:5]), *(int(v) for v in fields[5:8]))
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from None


def read_erf(path: str | Path) -> RasterSupport:
    path = Path(path)
    with path.open("rb") as f:
        x0, y0, dx, dy, ncols, nrows, dim = _read_erf_header(path, f)
        body = f.read()
    try:
        expected = ncols * nrows * dim * 4
        if len(body) != expected:
            raise ValidationError(f"erf body has {len(body)} bytes, expected {expected}")
        values = np.frombuffer(body, dtype="<f4").reshape(nrows, ncols, dim)
        return RasterSupport(x0=x0, y0=y0, dx=dx, dy=dy, ncols=ncols, nrows=nrows,
                             values=values.copy())
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Entity-set / cell-table CSV (`key_or_lon,lat,v_0..v_{dim-1}`)

def write_entity_csv(path: str | Path, rep: EntitySetSupport) -> None:
    path = Path(path)
    dim = rep.dim
    with path.open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["key_or_lon", "lat"] + [f"v_{j}" for j in range(dim)])
        for j in range(rep.n):
            w.writerow([_fmt(rep.lons[j]), _fmt(rep.lats[j])] + [_fmt(v) for v in rep.vectors[j]])


def read_entity_csv(path: str | Path) -> EntitySetSupport:
    path = Path(path)
    lons, lats, vecs = [], [], []
    with open_text(path) as f:
        reader = csv.reader(f)
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty entity file")
    (_, header), data = rows[0], rows[1:]
    dim = len(header) - 2
    if dim < 1 or header[:2] != ["key_or_lon", "lat"]:
        raise ValidationError(f"{path}: bad entity/cell-table header")
    for ln, r in data:
        if len(r) != dim + 2:
            raise ValidationError(f"{path}:{ln}: expected {dim + 2} values, got {len(r)}")
        try:
            lons.append(float(r[0]))
            lats.append(float(r[1]))
            vecs.append([float(v) for v in r[2:]])
        except ValueError:
            raise ValidationError(f"{path}:{ln}: malformed entity row") from None
    return EntitySetSupport(
        lons=np.array(lons), lats=np.array(lats),
        vectors=np.array(vecs, dtype=np.float64).reshape(len(lons), dim),
    )


def write_cell_table_csv(path: str | Path, rep: CellTableSupport) -> None:
    path = Path(path)
    g = rep.grid
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write(f"# hexgrid {g.lon0!r} {g.lat0!r} {g.edge_len_m!r}\n")
        w = csv.writer(f)
        w.writerow(["key_or_lon", "lat"] + [f"v_{j}" for j in range(rep.dim)])
        for cell in sorted(rep.table):
            w.writerow([hex_cell_key(cell), ""] + [_fmt(v) for v in rep.table[cell]])


def read_cell_table_csv(path: str | Path, grid: HexGrid | None = None) -> CellTableSupport:
    path = Path(path)
    with open_text(path) as f:
        lines = f.read().splitlines()
    file_grid = None
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        parts = line[1:].split()
        if parts and parts[0] == "hexgrid":
            try:
                lon0, lat0, edge = (float(v) for v in parts[1:])
                file_grid = HexGrid(lon0, lat0, edge)
            except ValueError as e:  # a wrong count and a bad HexGrid are ValueErrors too
                raise ValidationError(
                    f"{path}:{i + 1}: bad '# hexgrid lon0 lat0 edge_len_m' comment: {e}") from None
    grid = grid or file_grid
    if grid is None:
        raise ValidationError(f"{path}: cell table carries no hex grid and none was supplied")
    rows = list(csv.reader(lines[body_start:]))
    if not rows:
        raise ValidationError(f"{path}: empty cell table")
    header, data = rows[0], rows[1:]
    dim = len(header) - 2
    if dim < 1 or header[:2] != ["key_or_lon", "lat"]:
        raise ValidationError(f"{path}: bad entity/cell-table header")
    table: dict[tuple[int, int], np.ndarray] = {}
    for ln, r in enumerate(data, start=body_start + 2):
        try:
            cell = parse_hex_cell_key(r[0])
            vec = np.array([float(v) for v in r[2:]], dtype=np.float64)
        except (ValueError, IndexError):
            raise ValidationError(f"{path}:{ln}: malformed cell-table row") from None
        if vec.shape != (dim,):
            raise ValidationError(f"{path}:{ln}: expected {dim} components")
        if cell in table:
            raise ValidationError(f"{path}:{ln}: duplicate key {r[0]!r}")
        table[cell] = vec
    return CellTableSupport(grid=grid, table=table)


def peek_embedding_dim(path: str | Path, support: str) -> int:
    """Cheap dim probe of an embedding file, used by manifest validation."""
    path = Path(path)
    if support == "raster":
        with path.open("rb") as f:
            return _read_erf_header(path, f)[-1]
    if support in ("entity_set", "cell_table"):
        with open_text(path) as f:
            for line in f:
                if line.startswith("#"):
                    continue
                header = next(csv.reader([line]))
                if len(header) < 3 or header[:2] != ["key_or_lon", "lat"]:
                    raise ValidationError(f"{path}: bad entity/cell-table header")
                return len(header) - 2
        raise ValidationError(f"{path}: empty embedding file")
    raise ValidationError(f"no file format for support kind {support!r}")
