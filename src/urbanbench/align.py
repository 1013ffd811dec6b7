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
    check_rows,
    header_words,
    parse_field,
    parse_rows,
    read_table,
    repeats,
    write_rows,
)
from .grid import (
    HexGrid,
    hex_cell_key,
    hex_axial_xy,
    hex_cell_center_xy,
    hex_cells_of,
    parse_hex_cell_key,
    project_points,
)


@dataclass(frozen=True)
class AlignedMatrix:
    """Per-task-unit feature rows with a validity mask.

    Rows with valid=False are excluded from all downstream training and
    metrics; valid rows are always finite.
    """

    rows: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.rows.ndim != 2 or self.valid.shape != (self.rows.shape[0],):
            raise ValidationError("aligned matrix shape mismatch")
        if not np.all(np.isfinite(self.rows[self.valid])):
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


def _none_valid(task: TaskDataset, dim: int) -> AlignedMatrix:
    return _read_only(np.zeros((task.n, dim), dtype=np.float64),
                      np.zeros(task.n, dtype=bool))


def _read_only(rows: np.ndarray, valid: np.ndarray) -> AlignedMatrix:
    rows.setflags(write=False)
    valid.setflags(write=False)
    return AlignedMatrix(rows=rows, valid=valid)


# ---------------------------------------------------------------------------
# Array passes shared by the raster and h3-first aligners

def _windows(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, i, j) of every cell of each owner's rows x cols window,
    owner-major and row-major within an owner."""
    size = rows * cols
    owner = np.repeat(np.arange(size.size), size)
    k = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    return owner, k // cols[owner], k % cols[owner]


def _run_means(owner: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(means, has): the mean of each owner's run of `values` rows (`owner` sorted).

    The runs of one length go through one np.mean over an (owners, length,
    dim) block. numpy reduces each run in it as it reduces the run alone
    (from +0.0; in order for dim > 1, pairwise for dim 1), so every mean is
    bit for bit np.mean(run, axis=0)."""
    counts = np.bincount(owner, minlength=n)
    starts = np.cumsum(counts) - counts
    means = np.zeros((n, values.shape[1]), dtype=values.dtype)
    for k in set(counts.tolist()) - {0}:
        who = np.flatnonzero(counts == k)
        means[who] = values[starts[who, None] + np.arange(k)].mean(axis=1)
    return means, counts > 0


def _raster_cell_units(task: TaskDataset) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the raster-cell units and their extents as (x0, y0, x1, y1) rows."""
    quads = np.flatnonzero(task.is_cell)
    return quads, task.cell_extents[quads]


def _cell_keys(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One int64 per hex cell, ordered as the (q, r) pairs are."""
    return q * 2**32 + r


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, hit): the place of each wanted key in the sorted `keys`, and whether it is there."""
    if keys.size == 0:
        return np.zeros(wanted.shape, dtype=np.int64), np.zeros(wanted.shape, dtype=bool)
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return at, keys[at] == wanted


# ---------------------------------------------------------------------------
# Raster alignment

def align_raster(rep: RasterSupport, task: TaskDataset) -> AlignedMatrix:
    """Align a raster representation to the task units.

    Units coarser than the raster average the vectors of all valid raster
    cells whose centers fall inside the unit extent. When no raster center
    falls inside (raster coarser than the unit, or a point unit), the unit
    shares the vector of the raster cell containing its representative
    point. Units touching no valid raster cell become invalid.
    """
    quads, extents = _raster_cell_units(task)
    x0, y0, x1, y1 = extents.T
    # each unit's window of raster cells, clipped to the raster (an empty one
    # stays empty; clipping first keeps far-off units inside int64)
    c_lo = np.clip(np.ceil((x0 - rep.x0) / rep.dx - 0.5), 0, rep.ncols).astype(np.int64)
    c_hi = np.clip(np.floor((x1 - rep.x0) / rep.dx - 0.5), -1, rep.ncols - 1).astype(np.int64)
    r_lo = np.clip(np.ceil((y0 - rep.y0) / rep.dy - 0.5), 0, rep.nrows).astype(np.int64)
    r_hi = np.clip(np.floor((y1 - rep.y0) / rep.dy - 0.5), -1, rep.nrows - 1).astype(np.int64)
    owner, dr, dc = _windows(np.maximum(r_hi - r_lo + 1, 0), np.maximum(c_hi - c_lo + 1, 0))
    r, c = r_lo[owner] + dr, c_lo[owner] + dc
    vals = rep.values[r, c]
    cx = rep.x0 + (c + 0.5) * rep.dx
    cy = rep.y0 + (r + 0.5) * rep.dy
    # a center exactly on the closed max edge of the unit extent is outside
    hit = (~np.any(np.isnan(vals), axis=1) & (cx >= x0[owner]) & (cx < x1[owner])
           & (cy >= y0[owner]) & (cy < y1[owner]))
    means, has = _run_means(owner[hit], vals[hit], quads.size)

    rows = np.zeros((task.n, rep.dim), dtype=np.float64)
    valid = np.zeros(task.n, dtype=bool)
    rows[quads[has]] = means[has]
    valid[quads[has]] = True
    # every other unit shares the raster cell containing its point
    rest = np.flatnonzero(~valid)
    inside, row, col = rep.cell_index(task.lons[rest], task.lats[rest])
    rest, row, col = rest[inside], row[inside], col[inside]
    vec = rep.values[row, col]
    ok = ~np.any(np.isnan(vec), axis=1)
    rows[rest[ok]] = vec[ok]
    valid[rest[ok]] = True
    return _read_only(rows, valid)


# ---------------------------------------------------------------------------
# Entity alignment

def _pool_entities_by_hex(rep: EntitySetSupport, hexgrid: HexGrid) -> tuple[np.ndarray, np.ndarray]:
    """(keys, means): the sorted `_cell_keys` of the hex cells holding entities
    and each cell's mean entity vector, summed in entity order from its first
    vector, as a running float64 sum over the entities would."""
    keys, first, cell = np.unique(_cell_keys(*hex_cells_of(rep.lons, rep.lats, hexgrid)),
                                  return_index=True, return_inverse=True)
    sums = rep.vectors[first].astype(np.float64)
    rest = np.ones(cell.size, dtype=bool)
    rest[first] = False
    # add.at adds repeated indices one at a time, in index order
    np.add.at(sums, cell[rest], rep.vectors[rest])
    return keys, sums / np.bincount(cell, minlength=keys.size)[:, None]


_HEX_COS = np.array([math.cos(math.radians(60.0 * i + 30.0)) for i in range(6)])
_HEX_SIN = np.array([math.sin(math.radians(60.0 * i + 30.0)) for i in range(6)])


def _hex_cells_overlapping(corners: np.ndarray, hexgrid: HexGrid) -> tuple[np.ndarray, ...]:
    """(quad, q, r) of every hex cell whose closed hexagon overlaps a projected
    quad, sorted by quad and then by (q, r). `corners` is (n, 4, 2), each
    quad's corners in order."""
    qf, rf = hex_axial_xy(corners[..., 0], corners[..., 1], hexgrid)
    # A closed hexagon spans at most 2/3 in each axial coordinate about its
    # cell, so every cell that can reach the quad lies in the corners'
    # fractional range padded by 1.
    q_lo = np.ceil(qf.min(axis=1) - 1).astype(np.int64)
    q_hi = np.floor(qf.max(axis=1) + 1).astype(np.int64)
    r_lo = np.ceil(rf.min(axis=1) - 1).astype(np.int64)
    r_hi = np.floor(rf.max(axis=1) + 1).astype(np.int64)
    quad, dq, dr = _windows(q_hi - q_lo + 1, r_hi - r_lo + 1)
    q, r = q_lo[quad] + dq, r_lo[quad] + dr
    cx, cy = hex_cell_center_xy((q, r), hexgrid)
    a = hexgrid.edge_len_m
    # polygons as (vertex, candidate) arrays, so each reduction runs across rows
    hex_x = cx + (a * _HEX_COS)[:, None]
    hex_y = cy + (a * _HEX_SIN)[:, None]
    quad_x, quad_y = np.ascontiguousarray(corners[quad].transpose(2, 1, 0))
    # separating-axis test on the edge normals of both polygons (closed regions)
    overlap = np.ones(quad.size, dtype=bool)
    for xs, ys in ((hex_x, hex_y), (quad_x, quad_y)):
        m = len(xs)
        for i in range(m):
            ax = -(ys[(i + 1) % m] - ys[i])
            ay = xs[(i + 1) % m] - xs[i]
            hex_proj = ax * hex_x + ay * hex_y
            quad_proj = ax * quad_x + ay * quad_y
            overlap &= ~((hex_proj.max(axis=0) < quad_proj.min(axis=0))
                         | (quad_proj.max(axis=0) < hex_proj.min(axis=0)))
    return quad[overlap], q[overlap], r[overlap]


def align_entities_h3_first(rep: EntitySetSupport, hexgrid: HexGrid, task: TaskDataset) -> AlignedMatrix:
    """Mean-pool entities into hex cells, then match cells to task units.

    Point-like units take their containing cell's pooled vector; raster
    cells take the mean over intersecting hex cells that received
    entities. Units whose cell(s) received no entities become invalid.
    """
    if rep.n == 0:
        warnings.warn("empty entity set: all task units invalid", stacklevel=2)
        return _none_valid(task, rep.dim)
    keys, pooled = _pool_entities_by_hex(rep, hexgrid)
    quads, extents = _raster_cell_units(task)
    corners = extents[:, [0, 1, 2, 1, 2, 3, 0, 3]].reshape(-1, 2)
    x, y = project_points(hexgrid, corners[:, 0], corners[:, 1])
    quad, q, r = _hex_cells_overlapping(np.stack([x, y], axis=1).reshape(-1, 4, 2), hexgrid)
    at, hit = _lookup(keys, _cell_keys(q, r))
    means, has = _run_means(quad[hit], pooled[at[hit]], quads.size)

    rows = np.zeros((task.n, rep.dim), dtype=np.float64)
    valid = np.zeros(task.n, dtype=bool)
    rows[quads[has]] = means[has]
    valid[quads[has]] = True
    # a point unit takes its containing cell's pooled vector
    points = np.flatnonzero(~task.is_cell)
    at, hit = _lookup(keys, _cell_keys(*hex_cells_of(task.lons[points], task.lats[points], hexgrid)))
    rows[points[hit]] = pooled[at[hit]]
    valid[points[hit]] = True
    return _read_only(rows, valid)


def align_entities_direct(rep: EntitySetSupport, task: TaskDataset) -> AlignedMatrix:
    """Mean entity vectors inside each unit's own extent (no intermediate support).

    Point units carry no containment region and are always invalid; this is
    the ablation arm that h3-first aggregation is compared against.
    """
    if rep.n == 0:
        warnings.warn("empty entity set: all task units invalid", stacklevel=2)
        return _none_valid(task, rep.dim)
    lons = np.asarray(rep.lons, dtype=np.float64)
    lats = np.asarray(rep.lats, dtype=np.float64)
    rows = np.zeros((task.n, rep.dim), dtype=np.float64)
    valid = np.zeros(task.n, dtype=bool)
    for i, (x0, y0, x1, y1) in zip(*_raster_cell_units(task)):
        inside = (lons >= x0) & (lons < x1) & (lats >= y0) & (lats < y1)
        if np.any(inside):
            rows[i] = rep.vectors[inside].mean(axis=0)
            valid[i] = True
    return _read_only(rows, valid)


def align_cell_table(rep: CellTableSupport, hexgrid: HexGrid, task: TaskDataset) -> AlignedMatrix:
    """Look up each unit's containing hex cell (of the table's grid, else `hexgrid`) in the table."""
    cells = sorted(rep.table)
    vectors = np.array([rep.table[c] for c in cells], dtype=np.float64).reshape(len(cells), rep.dim)
    keys = _cell_keys(*np.array(cells, dtype=np.int64).reshape(-1, 2).T)
    at, valid = _lookup(keys, _cell_keys(*hex_cells_of(task.lons, task.lats, rep.grid or hexgrid)))
    rows = np.zeros((task.n, rep.dim), dtype=np.float64)
    rows[valid] = vectors[at[valid]]
    return _read_only(rows, valid)


def align_coordinate_encoder(enc: CoordinateEncoderSupport, task: TaskDataset) -> AlignedMatrix:
    """Query the encoder once, at every unit's representative coordinate."""
    rows = np.asarray(enc.fn(task.lons, task.lats), dtype=np.float64)
    if rows.shape != (task.n, enc.dim):
        raise ValidationError(
            f"encoder {enc.encoder_id} returned shape {rows.shape}, expected {(task.n, enc.dim)}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
    if bad.size:
        raise ValidationError(f"encoder {enc.encoder_id} returned non-finite values "
                              f"for unit {task.unit_ids[bad[0]]}")
    return _read_only(rows, np.ones(task.n, dtype=bool))


# ---------------------------------------------------------------------------
# Embedding raster format (".erf")

_ERF_MAGIC = "erf1"


def write_erf(path: str | Path, rep: RasterSupport) -> None:
    """Header line `erf1 x0 y0 dx dy ncols nrows dim`, then little-endian
    float32 values, row-major, dim-interleaved per cell."""
    path = Path(path)
    header = (f"{_ERF_MAGIC} {_fmt(rep.x0)} {_fmt(rep.y0)} {_fmt(rep.dx)} {_fmt(rep.dy)} "
              f"{rep.ncols} {rep.nrows} {rep.dim}\n")
    body = np.ascontiguousarray(rep.values, dtype="<f4").tobytes()
    with path.open("wb") as f:
        f.write(header.encode("ascii"))
        f.write(body)


def read_erf(path: str | Path) -> RasterSupport:
    path = Path(path)
    with path.open("rb") as f:
        header = f.readline()
        body = f.read()
    if not header.endswith(b"\n"):
        raise ValidationError(f"{path}: truncated erf header")
    try:  # ValidationError and UnicodeDecodeError are ValueErrors: each gets the path
        fields = header_words(header.decode("ascii"))
        if len(fields) != 8 or fields[0] != _ERF_MAGIC:
            raise ValidationError("not an erf1 file")
        x0, y0, dx, dy = (parse_field(float, v) for v in fields[1:5])
        ncols, nrows, dim = (parse_field(int, v) for v in fields[5:8])
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
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write(",".join(["key_or_lon", "lat"] + [f"v_{j}" for j in range(rep.dim)]) + "\r\n")
        write_rows(f, "\r\n", np.column_stack([rep.lons, rep.lats, rep.vectors]))


def read_entity_csv(path: str | Path) -> EntitySetSupport:
    path = Path(path)
    _, lines, rows = read_table(path)
    if not rows:
        raise ValidationError(f"{path}: empty entity file")
    header, rows, lines = rows[0], rows[1:], lines[1:]
    if len(header) < 3 or header[:2] != ["key_or_lon", "lat"]:
        raise ValidationError(f"{path}: bad entity/cell-table header")
    columns, read_rules = parse_rows(header, rows, [float] * len(header))
    values = np.column_stack(columns).reshape(len(rows), len(header))
    check_rows([
        *read_rules,
        (~np.isfinite(values[:, :2]).all(axis=1), lambda i: "non-finite coordinate"),
        (~np.isfinite(values[:, 2:]).all(axis=1), lambda i: "non-finite value"),
    ], path, lines)
    return EntitySetSupport(lons=values[:, 0].copy(), lats=values[:, 1].copy(),
                            vectors=values[:, 2:].copy())


def _empty_field(text: str) -> str:
    """A field the writer always leaves empty."""
    if text:
        raise ValueError(f"expected an empty field, got {text!r}")
    return text


def write_cell_table_csv(path: str | Path, rep: CellTableSupport) -> None:
    path = Path(path)
    g = rep.grid
    with path.open("w", encoding="utf-8", newline="") as f:
        if g is not None:
            f.write(f"# hexgrid {_fmt(g.lon0)} {_fmt(g.lat0)} {_fmt(g.edge_len_m)}\n")
        f.write(",".join(["key_or_lon", "lat"] + [f"v_{j}" for j in range(rep.dim)]) + "\r\n")
        cells = sorted(rep.table)
        vectors = np.array([rep.table[cell] for cell in cells], dtype=np.float64).reshape(len(cells), rep.dim)
        write_rows(f, "\r\n", vectors, [list(map(hex_cell_key, cells)), [""] * len(cells)])


def read_cell_table_csv(path: str | Path) -> CellTableSupport:
    """A cell table keyed on the grid of its `# hexgrid` comment (None without one)."""
    path = Path(path)
    meta, lines, rows = read_table(path)
    grid = None
    if "hexgrid" in meta:
        line, text = meta["hexgrid"]
        try:
            lon0, lat0, edge = (parse_field(float, w) for w in header_words(text))
            grid = HexGrid(lon0, lat0, edge)
        except ValueError as e:  # a wrong count and a bad HexGrid are ValueErrors too
            raise ValidationError(
                f"{path}:{line}: bad '# hexgrid lon0 lat0 edge_len_m' comment: {e}") from None
    if not rows:
        raise ValidationError(f"{path}: empty cell table")
    header, rows, lines = rows[0], rows[1:], lines[1:]
    dim = len(header) - 2
    if dim < 1 or header[:2] != ["key_or_lon", "lat"]:
        raise ValidationError(f"{path}: bad entity/cell-table header")
    columns, read_rules = parse_rows(header, rows, [parse_hex_cell_key, _empty_field] + [float] * dim)
    cells, vectors = columns[0], np.column_stack(columns[2:]).reshape(len(rows), dim)
    check_rows([
        *read_rules,
        (~np.isfinite(vectors).all(axis=1), lambda i: "non-finite value"),
        (repeats(cells), lambda i: f"duplicate key {rows[i][0]!r}"),
    ], path, lines)
    return CellTableSupport(grid=grid, table=dict(zip(cells, vectors)))
