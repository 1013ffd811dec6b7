"""Reference code the tests check the package against: the checked per-unit
`TaskUnit` that datasets were once built from, the per-unit synthetic-city
loop, scalar geometry that only tests call, a head trainer with fresh arrays
and textbook Adam, the CSV embedding, factor and result-store readers that
check one row at a time, and the CSV writers that format one value and write
one row at a time."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from urbanbench.cli import PROTOCOLS, STORE_HEADER
from urbanbench.core import (METRICS_FOR_KIND, TASK_LABEL_KIND, CellTableSupport, EntitySetSupport, Rect,
                             ResultRecord, TaskDataset, ValidationError, _fmt, read_table)
from urbanbench.grid import (EARTH_RADIUS_M, BlockGrid, HexGrid, hex_cell_center_xy, hex_cell_key,
                             parse_hex_cell_key)
from urbanbench.heads import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, EARLY_STOP_TOL, LEARNING_RATE


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
# Head training with fresh arrays, a dict of parameters and textbook Adam

class ReferenceHead(NamedTuple):
    params: dict[str, np.ndarray]
    best_val_loss: float
    epochs_run: int
    predictions: np.ndarray  # of every row of the features, valid or not


def _head_forward(params: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Output and hidden activations (None for a linear head)."""
    if "W" in params:
        return x @ params["W"] + params["b"], None
    h = np.maximum(x @ params["W1"] + params["b1"], 0.0)
    return h @ params["W2"] + params["b2"], h


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


def _head_loss_and_dz(z: np.ndarray, y: np.ndarray, output: str) -> tuple[float, np.ndarray]:
    """scalar: MSE; class: softmax cross-entropy; distribution: KL(y || softmax(z)), 0 log 0 = 0."""
    n = len(z)
    if output == "scalar":
        diff = z[:, 0] - y
        return np.sum(diff * diff) / n, 2.0 / n * diff[:, None]
    log_q = _log_softmax(z)
    if output == "class":
        onehot = np.eye(z.shape[1])[y]
        return -(np.sum(log_q[np.arange(n), y]) / n), (np.exp(log_q) - onehot) / n
    y_log_y = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0)), 0.0)
    return np.sum(np.sum(y_log_y - y * log_q, axis=1)) / n, (np.exp(log_q) - y) / n


def _head_gradients(params: dict, x: np.ndarray, h: np.ndarray | None, dz: np.ndarray) -> dict:
    if h is None:
        return {"W": x.T @ dz, "b": dz.sum(axis=0)}
    dh = (dz @ params["W2"].T) * (h > 0)
    return {"W1": x.T @ dh, "b1": dh.sum(axis=0), "W2": h.T @ dz, "b2": dz.sum(axis=0)}


def train_head_reference(features, labels, split, cfg, run_seed: int) -> ReferenceHead:
    """`heads.train_head`, then `heads.predict` on every row, for labels as
    `TaskDataset` holds them: the same RNG draws in the same order (the
    weights, then one permutation per epoch) and each expression written
    once. It applies no error rule."""
    train = split.mask("train") & features.valid
    val = split.mask("val") & features.valid
    x_train, x_val = features.rows[train], features.rows[val]
    y_train, y_val = labels[train], labels[val]
    scale = None  # a scalar task's train-set (mean, population std), unless its targets are constant
    if cfg.output == "scalar":
        mean = float(y_train.mean())
        std = float(np.sqrt(np.mean((y_train - mean) ** 2)))
        if std > 0.0:
            scale = (mean, std)
            y_train, y_val = (y_train - mean) / std, (y_val - mean) / std
    rng = np.random.default_rng(run_seed)
    shapes = ([("W", "b", features.dim, cfg.n_out)] if cfg.kind == "linear" else
              [("W1", "b1", features.dim, cfg.hidden_dim), ("W2", "b2", cfg.hidden_dim, cfg.n_out)])
    params = {}
    for w, b, fan_in, fan_out in shapes:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[w] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[b] = np.zeros(fan_out)
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    best, best_params, stale, epochs, t = math.inf, params, 0, 0, 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(x_train))
        for start in range(0, len(x_train), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            x, y = x_train[sel], y_train[sel]
            z, h = _head_forward(params, x)
            _, dz = _head_loss_and_dz(z, y, cfg.output)
            t += 1
            updated = {}
            for k, g in _head_gradients(params, x, h, dz).items():
                m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
                v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
                updated[k] = params[k] - LEARNING_RATE * (m[k] / (1.0 - ADAM_BETA1 ** t)) / (
                    np.sqrt(v[k] / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)
            params = updated
        val_loss, _ = _head_loss_and_dz(_head_forward(params, x_val)[0], y_val, cfg.output)
        epochs = epoch + 1
        if val_loss < best - EARLY_STOP_TOL:
            best, best_params, stale = float(val_loss), params, 0
        else:
            stale += 1
        if stale >= cfg.patience:
            break
    z, _ = _head_forward(best_params, features.rows)
    if cfg.output == "scalar":
        predictions = z[:, 0] if scale is None else z[:, 0] * scale[1] + scale[0]
    else:
        predictions = np.argmax(z, axis=1) if cfg.output == "class" else np.exp(_log_softmax(z))
    return ReferenceHead(best_params, best, epochs, predictions)


# ---------------------------------------------------------------------------
# CSV readers, one row at a time: each row checked in full before the next.
# Their dialect (comments, blank lines, line numbers) is `read_table`'s.

FLOAT32_MAX = (2.0 - 2.0 ** -23) * 2.0 ** 127  # the largest finite IEEE binary32 value

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
    its coordinates, then of its vector, then its vector's float32 range."""
    path = Path(path)
    _, lines, rows = read_table(path, {})
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
        if any(abs(v) > FLOAT32_MAX for v in vec[2:]):
            raise ValidationError(f"{path}:{ln}: value outside the float32 range")
        values.append(vec)
    values = np.array(values, dtype=np.float64).reshape(len(data), dim + 2)
    return EntitySetSupport(lons=values[:, 0], lats=values[:, 1], vectors=values[:, 2:])


def _empty(text: str) -> str:
    if text != "":
        raise ValueError(f"expected an empty field, got {text!r}")
    return text


def _hexgrid(text: str) -> HexGrid:
    """The value of a `# hexgrid lon0 lat0 edge_len_m` comment: three numbers."""
    lon0, lat0, edge = (float(strict(v)) for v in text.split(" "))
    return HexGrid(lon0, lat0, edge)


def read_cell_table_csv(path) -> CellTableSupport:
    """`align.read_cell_table_csv` row by row: a row's fields (a key, an
    empty lat, numbers), the finiteness of its vector, its float32 range, then
    a key no earlier row has."""
    path = Path(path)
    meta, lines, rows = read_table(path, {"hexgrid": _hexgrid})
    if "hexgrid" not in meta:
        raise ValidationError(f"{path}: missing '# hexgrid lon0 lat0 edge_len_m' comment")
    grid = meta["hexgrid"][1]
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
        if any(abs(v) > FLOAT32_MAX for v in vec):
            raise ValidationError(f"{path}:{ln}: value outside the float32 range")
        if cell in table:
            raise ValidationError(f"{path}:{ln}: duplicate key {r[0]!r}")
        table[cell] = np.array(vec, dtype=np.float64)
    return CellTableSupport(grid=grid, table=table)


def read_factors(path) -> dict[str, dict[str, float]]:
    """`cli._read_factors` row by row: each factor name nonempty and unique,
    then a row's fields (a city, then numbers or empty for missing), a
    nonempty city, a city no earlier row names, then each given value finite."""
    path = Path(path)
    _, lines, rows = read_table(path, {})
    header = rows[0] if rows else []
    if header[:1] != ["city"]:
        raise ValidationError(f"{path}: factors header must start with 'city'")
    names = header[1:]
    seen_names = set()
    for name in names:
        if name == "":
            raise ValidationError(f"{path}:{lines[0]}: empty factor name")
        if name in seen_names:
            raise ValidationError(f"{path}:{lines[0]}: repeated factor {name!r}")
        seen_names.add(name)
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
    kind, n_test >= 1, then a key no earlier row has. Once every row holds,
    the first row of a (model, task, city, seed, protocol) group without a row
    for each metric of its task's kind names the metrics it lacks."""
    path = Path(path)
    _, lines, rows = read_table(path, {})
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
    for ln, record in zip(lines[1:], records):
        group = record[:5]
        have = {r.metric for r in records if r[:5] == group}
        lacking = [m for m in METRICS_FOR_KIND[TASK_LABEL_KIND[record.task]] if m not in have]
        if lacking:
            raise ValidationError(f"{path}:{ln}: incomplete group: no {', '.join(lacking)} row")
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
        f.write(f"# hexgrid {g.lon0!r} {g.lat0!r} {g.edge_len_m!r}\n")
        w = csv.writer(f)
        w.writerow(["key_or_lon", "lat"] + [f"v_{j}" for j in range(rep.dim)])
        for cell in sorted(rep.table):
            w.writerow([hex_cell_key(cell), ""] + [_fmt(v) for v in rep.table[cell]])
