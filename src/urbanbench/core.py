"""Domain model for cities, tasks, units, labels, and representations.

Also owns the task-dataset CSV format and the run manifest. Everything
here is immutable after load and safe to share across concurrent
evaluation runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .grid import HexGrid


class ValidationError(ValueError):
    """Raised when an input file or domain object violates an invariant."""


LABEL_KINDS = ("scalar", "class", "distribution")

TASKS = ("LUC", "RDE", "POP", "AGE", "GDP", "NTL", "PM25", "LST")

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"

TASK_LABEL_KIND = {
    "LUC": "class",
    "AGE": "distribution",
    "RDE": "scalar",
    "POP": "scalar",
    "GDP": "scalar",
    "NTL": "scalar",
    "PM25": "scalar",
    "LST": "scalar",
}

TASK_PRIMARY_METRIC = {
    "LUC": "macro_f1",
    "AGE": "kl",
    "RDE": "r2",
    "POP": "r2",
    "GDP": "r2",
    "NTL": "r2",
    "PM25": "r2",
    "LST": "r2",
}

METRIC_DIRECTION = {
    "r2": HIGHER_BETTER,
    "mae": LOWER_BETTER,
    "rmse": LOWER_BETTER,
    "macro_f1": HIGHER_BETTER,
    "macro_precision": HIGHER_BETTER,
    "macro_recall": HIGHER_BETTER,
    "kl": LOWER_BETTER,
    "chebyshev": LOWER_BETTER,
    "l1": LOWER_BETTER,
}

# Metrics emitted per label kind, in result-store order.
METRICS_FOR_KIND = {
    "scalar": ("r2", "mae", "rmse"),
    "class": ("macro_f1", "macro_precision", "macro_recall"),
    "distribution": ("kl", "chebyshev", "l1"),
}

BENCHMARK_CITIES = (
    "London", "New York", "Singapore", "Sydney",
    "Mumbai", "Nairobi", "Jakarta", "Cape Town",
)
# Age-distribution labels are only reliable in these four benchmark cities.
AGE_CITIES = frozenset({"London", "New York", "Singapore", "Sydney"})

SUPPORT_KINDS = ("raster", "cell_table", "entity_set", "coordinate_encoder")

DISTRIBUTION_SUM_TOL = 1e-6


def task_direction(task: str) -> str:
    return METRIC_DIRECTION[TASK_PRIMARY_METRIC[task]]


@dataclass(frozen=True)
class ResultRecord:
    """The atom of all aggregation; value may be NaN when flagged degenerate."""

    model_id: str
    task: str
    city: str
    seed: int
    protocol: str
    metric: str
    value: float
    n_test: int

    @property
    def degenerate(self) -> bool:
        return not math.isfinite(self.value)


def stable_seed(*parts) -> int:
    """Portable 64-bit seed from arbitrary key parts (order-sensitive)."""
    key = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in WGS84 degrees."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x0, self.y0, self.x1, self.y1)):
            raise ValidationError("rectangle coordinates must be finite")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValidationError(f"inverted rectangle {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def nondegenerate(self) -> bool:
        return self.width > 0 and self.height > 0

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))


class TaskUnit(NamedTuple):
    """One unit of a TaskDataset as a record, built from its columns by
    `TaskDataset.units`; `cell_extent` is (x0, y0, x1, y1), or None for a point."""

    unit_id: str
    lon: float
    lat: float
    cell_extent: tuple[float, float, float, float] | None


# A unit_id with one of these would not survive the task CSV's unquoted fields.
_ID_FORBIDDEN = re.compile('[,"\r\n]')


def bad_unit_rows(unit_ids: Sequence[str], lons: np.ndarray, lats: np.ndarray,
                  cell_extents: np.ndarray, is_cell: np.ndarray) -> tuple[np.ndarray, str | None]:
    """Every rule for a valid unit, as array passes over unit columns: True for
    each row that breaks one, and the message of the first such row (None if
    every row holds). A point unit's (x0, y0, x1, y1) row is all NaN. A raster
    cell's row is a finite, non-inverted Rect (those errors are Rect's own);
    then, for every unit: a nonempty unit_id without ',', '"', CR or LF, lon in
    [-180, 180] and lat in [-90, 90]; then a raster cell has positive area
    (for finite floats x1 > x0 is x1 - x0 > 0) and contains the unit's point."""
    n = len(unit_ids)
    x0, y0, x1, y1 = cell_extents.T
    finite = np.isfinite(cell_extents).all(axis=1)
    rules = [  # (rows that break the rule, message of row i), in check order
        (is_cell & ~finite, lambda i: _rect_error(cell_extents[i])),
        (is_cell & finite & ((x1 < x0) | (y1 < y0)), lambda i: _rect_error(cell_extents[i])),
        (np.fromiter(map(len, unit_ids), np.int64, n) == 0, lambda i: "unit_id must be nonempty"),
        (np.fromiter(map(bool, map(_ID_FORBIDDEN.search, unit_ids)), bool, n),
         lambda i: f"unit_id {unit_ids[i]!r} contains ',', '\"', CR or LF"),
        (~((-180.0 <= lons) & (lons <= 180.0)),
         lambda i: f"unit {unit_ids[i]}: lon {lons[i].item()} out of [-180,180]"),
        (~((-90.0 <= lats) & (lats <= 90.0)),
         lambda i: f"unit {unit_ids[i]}: lat {lats[i].item()} out of [-90,90]"),
        (is_cell & ~((x1 > x0) & (y1 > y0)),
         lambda i: f"unit {unit_ids[i]}: raster_cell requires a nonempty cell_extent"),
        (is_cell & ~((x0 <= lons) & (lons <= x1) & (y0 <= lats) & (lats <= y1)),
         lambda i: f"unit {unit_ids[i]}: cell_extent does not contain its point"),
        (~is_cell & ~np.isnan(cell_extents).all(axis=1),
         lambda i: f"unit {unit_ids[i]}: cell_extent only allowed for raster_cell units"),
    ]
    bad = np.any([rows for rows, _ in rules], axis=0)
    if not bad.any():
        return bad, None
    i = int(np.argmax(bad))
    return bad, next(message(i) for rows, message in rules if rows[i])


def _rect_error(row: np.ndarray) -> str:
    """The error Rect raises for an (x0, y0, x1, y1) row it rejects."""
    try:
        Rect(*row.tolist())
    except ValidationError as e:
        return str(e)
    raise AssertionError(f"Rect accepts {row}")


class TaskDataset:
    """One city-task pair: units, parallel labels, and spatial extent.

    Immutable after construction. Units are held as columns: `unit_ids`,
    float64 `lons` and `lats`, and `cell_extents`, one (x0, y0, x1, y1) row
    per unit and NaN for a point unit (`is_cell` marks the raster cells).
    Every unit must pass `bad_unit_rows`. Labels are packed into numpy
    arrays: scalar -> (n,) float, class -> (n,) int, distribution -> (n, K)
    float.
    """

    def __init__(self, city: str, task: str, unit_ids: Sequence[str], lons: np.ndarray,
                 lats: np.ndarray, cell_extents: np.ndarray, labels: np.ndarray, extent: Rect,
                 n_classes: int | None = None):
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}; expected one of {TASKS}")
        if not city:
            raise ValidationError("city must be nonempty")
        self.city = city
        self.task = task
        self.unit_ids = unit_ids = tuple(unit_ids)
        # copies, so that freezing them leaves the caller's arrays writeable
        self.lons = lons = np.array(lons, dtype=np.float64)
        self.lats = lats = np.array(lats, dtype=np.float64)
        self.cell_extents = np.array(cell_extents, dtype=np.float64).reshape(-1, 4)
        self.is_cell = ~np.isnan(self.cell_extents[:, 0])
        for a in (lons, lats, self.cell_extents, self.is_cell):
            a.setflags(write=False)
        _, error = bad_unit_rows(unit_ids, lons, lats, self.cell_extents, self.is_cell)
        if error is not None:
            raise ValidationError(error)
        self.extent = extent
        self.label_kind = TASK_LABEL_KIND[task]
        labels = np.asarray(labels)

        n = len(unit_ids)
        if labels.shape[0] != n:
            raise ValidationError(f"{labels.shape[0]} labels for {n} units")
        outside = ~((extent.x0 <= lons) & (lons <= extent.x1)
                    & (extent.y0 <= lats) & (lats <= extent.y1))
        if len(set(unit_ids)) < n or outside.any():
            seen: set[str] = set()
            for uid, out in zip(unit_ids, outside.tolist()):
                if uid in seen:
                    raise ValidationError(f"duplicate unit_id {uid!r}")
                seen.add(uid)
                if out:
                    raise ValidationError(f"unit {uid} outside dataset extent")

        if self.label_kind == "scalar":
            if labels.ndim != 1:
                raise ValidationError("scalar labels must be 1-d")
            labels = labels.astype(np.float64)
            if not np.all(np.isfinite(labels)):
                raise ValidationError("scalar labels must be finite")
            self.n_classes = None
        elif self.label_kind == "class":
            if labels.ndim != 1:
                raise ValidationError("class labels must be 1-d")
            try:
                labels = labels.astype(np.int64)
            except OverflowError:  # a Python int past int64 in an object array
                raise ValidationError("class index outside the int64 range") from None
            if n_classes is None:
                n_classes = int(labels.max()) + 1 if n else 0
            if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
                raise ValidationError(f"class index outside [0,{n_classes})")
            self.n_classes = int(n_classes)
        else:
            if labels.ndim != 2:
                raise ValidationError("distribution labels must be 2-d")
            labels = labels.astype(np.float64)
            if np.any(labels < 0):
                raise ValidationError("distribution entries must be nonnegative")
            if not np.all(np.isfinite(labels)):
                raise ValidationError("distribution entries must be finite")
            sums = labels.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > DISTRIBUTION_SUM_TOL)[0]
            if bad.size:
                ids = ", ".join(unit_ids[i] for i in bad[:5])
                raise ValidationError(f"distributions do not sum to 1 for units: {ids}")
            # Renormalize CSV round-off after validation; exact sums stay bit-identical.
            off = sums != 1.0
            if np.any(off):
                labels = labels.copy()
                labels[off] = labels[off] / sums[off, None]
            self.n_classes = labels.shape[1]

        labels.setflags(write=False)
        self.labels = labels

    @property
    def units(self) -> tuple[TaskUnit, ...]:
        """Every unit as a TaskUnit record, built from the columns on each call."""
        cells = [tuple(c) if k else None for c, k in zip(self.cell_extents.tolist(), self.is_cell.tolist())]
        return tuple(map(TaskUnit, self.unit_ids, self.lons.tolist(), self.lats.tolist(), cells))

    @property
    def n(self) -> int:
        return len(self.unit_ids)


def _fmt(v: float) -> str:
    """Shortest round-trip text for a float."""
    return repr(float(v))


@contextmanager
def open_text(path: Path):
    """Open a UTF-8 text input for reading (newlines untranslated, as the csv
    module wants); bytes that are not UTF-8 raise a ValidationError naming it."""
    try:
        with path.open("r", encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text ({e.reason})") from None


def csv_rows(path: Path, lines: Iterable[str], first_line: int = 1) -> Iterator[tuple[int, list[str]]]:
    """`csv.reader` over `lines`, numbered from `first_line`: the (line number,
    fields) of each row, where a row's number is that of its last line. A line
    the csv module rejects raises a ValidationError naming path:line."""
    reader = csv.reader(lines)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise ValidationError(f"{path}:{first_line - 1 + reader.line_num}: malformed CSV ({e})") from None
        yield first_line - 1 + reader.line_num, row


def load_task_dataset(path: str | Path) -> TaskDataset:
    """Load a task dataset from its canonical CSV form.

    Leading `# key value...` comment lines carry task, city, extent, and
    (for class labels) the declared class count. Load is deterministic and
    order-preserving; malformed rows fail with their line number. Lines end
    at CR, LF or CRLF only, as the csv module reads them.
    """
    path = Path(path)
    meta: dict[str, str] = {}
    with open_text(path) as f:
        raw_lines = f.read().replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if raw_lines[-1] == "":  # the end of the last line
        raw_lines.pop()

    lineno = 0
    n_lines = len(raw_lines)
    while lineno < n_lines and raw_lines[lineno].startswith("#"):
        body = raw_lines[lineno][1:].strip()
        if body:
            key, _, rest = body.partition(" ")
            meta[key] = rest.strip()
        lineno += 1
    if lineno >= n_lines:
        raise ValidationError(f"{path}: no header row")
    if "task" not in meta or "city" not in meta:
        raise ValidationError(f"{path}: missing '# task ...' / '# city ...' metadata")
    task = meta["task"]
    city = meta["city"]
    if task not in TASKS:
        raise ValidationError(f"{path}: unknown task {task!r}")

    header_line = lineno + 1
    header = next(csv_rows(path, [raw_lines[lineno]], header_line))[1]
    lineno += 1
    if header[:3] != ["unit_id", "lon", "lat"]:
        raise ValidationError(f"{path}:{header_line}: header must start with unit_id,lon,lat")
    rest = header[3:]
    has_extent = rest[:4] == ["x0", "y0", "x1", "y1"]
    label_cols = rest[4:] if has_extent else rest

    kind = TASK_LABEL_KIND[task]
    if kind == "scalar":
        expected = ["value"]
    elif kind == "class":
        expected = ["class"]
    else:
        k = len(label_cols)
        expected = [f"p_{i}" for i in range(k)]
        if k < 2:
            raise ValidationError(f"{path}:{header_line}: distribution needs >= 2 p_ columns")
    if label_cols != expected:
        raise ValidationError(
            f"{path}:{header_line}: label columns {label_cols} do not match task {task} ({expected})"
        )

    numbered = [(ln, line) for ln, line in enumerate(raw_lines[lineno:], lineno + 1) if line]
    rows = _task_rows(path, numbered)
    n, width = len(rows), len(header)
    # Every parse, unit and label check of a row, as array passes over the
    # columns; a row that fails any of them is flagged in `bad`.
    bad = np.fromiter(map(len, rows), np.int64, n) != width
    padded = [r if len(r) == width else [""] * width for r in rows] if bad.any() else rows
    cols = list(zip(*padded)) or [()] * width
    lons = _parsed(cols[1], float, bad)
    lats = _parsed(cols[2], float, bad)
    if has_extent:
        cells = np.column_stack([_parsed(c, float, bad) for c in cols[3:7]]).reshape(n, 4)
    else:
        cells = np.full((n, 4), np.nan)
    unit_bad, unit_error = bad_unit_rows(cols[0], lons, lats, cells, np.full(n, has_extent))
    bad |= unit_bad
    payload = cols[7:] if has_extent else cols[3:]
    if kind == "scalar":
        labels = _parsed(payload[0], float, bad)
    elif kind == "class":
        labels = _parsed(payload[0], int, bad)
    else:
        labels = np.column_stack([_parsed(c, float, bad) for c in payload]) if n else np.zeros((0, 2))
        bad |= (labels < 0).any(axis=1) | ~np.isfinite(labels).all(axis=1)
        bad |= np.abs(_parsed(labels.tolist(), math.fsum, bad) - 1.0) > DISTRIBUTION_SUM_TOL
    if bad.any():
        # no row before the first bad row breaks a unit rule, so `unit_error` is its own
        i = int(np.argmax(bad))
        message = _row_error(rows[i], width, has_extent, kind, unit_error if unit_bad[i] else None)
        raise ValidationError(f"{path}:{numbered[i][0]}: {message}")

    if "extent" in meta:
        try:
            extent = Rect(*(float(v) for v in meta["extent"].split()))
        except (TypeError, ValueError):
            raise ValidationError(f"{path}: malformed '# extent' line") from None
    else:
        if not n:
            raise ValidationError(f"{path}: empty dataset and no extent metadata")
        # Python's min and max keep the first of 0.0 and -0.0; np.min may not
        xs = lons.tolist() + (cells[:, [0, 2]].ravel().tolist() if has_extent else [])
        ys = lats.tolist() + (cells[:, [1, 3]].ravel().tolist() if has_extent else [])
        extent = Rect(min(xs), min(ys), max(xs), max(ys))

    try:
        n_classes = int(meta["classes"]) if "classes" in meta else None
    except ValueError:
        raise ValidationError(f"{path}: malformed '# classes' line") from None
    try:
        return TaskDataset(city, task, cols[0], lons, lats, cells, labels, extent, n_classes=n_classes)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _task_rows(path: Path, numbered: list[tuple[int, str]]) -> list[list[str]]:
    """The fields of each numbered line, parsed on its own: an open quote
    never runs on into the next line."""
    reader = csv.reader([line for _, line in numbered])
    try:
        rows = list(reader)
        if reader.line_num == len(rows):
            return rows
    except csv.Error:
        pass
    return [next(csv_rows(path, [line], ln))[1] for ln, line in numbered]


def _parsed(values: Sequence, convert, bad: np.ndarray) -> np.ndarray:
    """`convert` of every value as an array; a value it rejects flags its row
    in `bad` and reads 0."""
    try:
        out = list(map(convert, values))
    except (ValueError, OverflowError):
        out = []
        for i, v in enumerate(values):
            try:
                out.append(convert(v))
            except (ValueError, OverflowError):
                bad[i] = True
                out.append(0)
    return np.array(out)


def _row_error(fields: list[str], width: int, has_extent: bool, kind: str,
               unit_error: str | None) -> str:
    """The message of a task-CSV body row that fails a check, in the order a
    row is read: its field count, its numbers, `unit_error` (the message of
    `bad_unit_rows` for the row, if it breaks a unit rule), then its label."""
    if len(fields) != width:
        return f"expected {width} fields, got {len(fields)}"
    n_coords = 7 if has_extent else 3
    try:
        for v in fields[1:n_coords]:
            float(v)
        if unit_error is not None:
            return unit_error
        payload = fields[n_coords:]
        if kind == "scalar":
            float(payload[0])
        elif kind == "class":
            int(payload[0])
        else:
            vec = [float(v) for v in payload]
            if any(v < 0 for v in vec):
                return f"unit {fields[0]}: negative probability"
            if not all(map(math.isfinite, vec)):
                return f"unit {fields[0]}: non-finite probability"
            return f"unit {fields[0]}: distribution sums to {math.fsum(vec)!r}, not 1"
    except (ValueError, OverflowError) as e:
        return f"malformed row ({e})"
    raise AssertionError(f"row {fields} passes every check")


def write_task_dataset(path: str | Path, ds: TaskDataset) -> None:
    """Write the canonical CSV form; load(write(ds)) round-trips byte-identically."""
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


# ---------------------------------------------------------------------------
# Representation supports

@dataclass(frozen=True)
class RasterSupport:
    """Regular lon/lat grid of embedding vectors; NaN marks invalid cells.

    Row r covers y in [y0 + r*dy, y0 + (r+1)*dy); values has shape
    (nrows, ncols, dim), row 0 at the south edge.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    ncols: int
    nrows: int
    values: np.ndarray

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x0, self.y0, self.dx, self.dy)):
            raise ValidationError("raster origin and cell sizes must be finite")
        if self.dx <= 0 or self.dy <= 0:
            raise ValidationError("raster cell sizes must be positive")
        if self.ncols < 1 or self.nrows < 1:
            raise ValidationError("raster must have at least one cell")
        if self.values.ndim != 3 or self.values.shape[:2] != (self.nrows, self.ncols):
            raise ValidationError(
                f"raster values shape {self.values.shape} inconsistent with {self.nrows}x{self.ncols}"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def cell_index(self, lons: np.ndarray, lats: np.ndarray) -> tuple[np.ndarray, ...]:
        """(inside, row, col) of the cells containing the points; half-open, max
        edge closed. A point outside the raster gets row = col = 0."""
        x1 = self.x0 + self.ncols * self.dx
        y1 = self.y0 + self.nrows * self.dy
        inside = (self.x0 <= lons) & (lons <= x1) & (self.y0 <= lats) & (lats <= y1)
        col = np.zeros(lons.shape, dtype=np.int64)
        row = np.zeros(lats.shape, dtype=np.int64)
        col[inside] = np.minimum(((lons[inside] - self.x0) / self.dx).astype(np.int64), self.ncols - 1)
        row[inside] = np.minimum(((lats[inside] - self.y0) / self.dy).astype(np.int64), self.nrows - 1)
        return inside, row, col


@dataclass(frozen=True)
class EntitySetSupport:
    """Point entities (POI-like) each carrying an embedding vector."""

    lons: np.ndarray
    lats: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if not (len(self.lons) == len(self.lats) == len(self.vectors)):
            raise ValidationError("entity arrays must have equal length")
        if self.vectors.ndim != 2:
            raise ValidationError("entity vectors must be 2-d")

    @property
    def n(self) -> int:
        return len(self.lons)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class CellTableSupport:
    """Embedding table keyed by hex cell id of a specific HexGrid."""

    grid: "HexGrid"
    table: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        dims = {v.shape[0] for v in self.table.values()}
        if len(dims) > 1:
            raise ValidationError(f"cell table has mixed vector lengths {sorted(dims)}")

    @property
    def dim(self) -> int:
        for v in self.table.values():
            return v.shape[0]
        return 0


@dataclass(frozen=True)
class CoordinateEncoderSupport:
    """A deterministic function of n coordinates: (lons, lats) -> (n, dim) embedding rows."""

    encoder_id: str
    dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Representation:
    """An embedding with a declared spatial support."""

    model_id: str
    dim: int
    support: RasterSupport | CellTableSupport | EntitySetSupport | CoordinateEncoderSupport

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be positive")
        sup_dim = self.support.dim
        if sup_dim and sup_dim != self.dim:
            raise ValidationError(
                f"model {self.model_id}: declared dim {self.dim} != support dim {sup_dim}"
            )


# ---------------------------------------------------------------------------
# Manifest

@dataclass(frozen=True)
class ManifestModel:
    model_id: str
    dim: int
    support: str
    files: Mapping[str, str] = field(default_factory=dict)
    encoder: str | None = None
    hexgrid: HexGrid | None = None


@dataclass(frozen=True)
class Manifest:
    """Run inputs: per-city task files and per-model embedding sources."""

    cities: Mapping[str, Mapping[str, str]]   # city -> task -> path
    models: Mapping[str, ManifestModel]
    base_dir: Path

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p


def _json_object(value, path: Path, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: {key} must be a JSON object, got {type(value).__name__}")
    return value


def _json_paths(value, path: Path, key: str) -> dict[str, str]:
    """A JSON object whose values are file paths."""
    for name, rel in _json_object(value, path, key).items():
        if not isinstance(rel, str):
            raise ValidationError(f"{path}: {key}.{name} must be a path string, got {rel!r}")
    return dict(value)


def _json_hexgrid(value, path: Path, key: str) -> HexGrid:
    """A manifest `hexgrid` entry: numbers lon0, lat0 and optionally edge_len_m."""
    from .grid import HexGrid

    entry = _json_object(value, path, key)
    if not {"lon0", "lat0"} <= entry.keys() <= {"lon0", "lat0", "edge_len_m"}:
        raise ValidationError(f"{path}: {key} needs lon0 and lat0 and may have edge_len_m, "
                              f"got {sorted(entry)}")
    for name, v in entry.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{path}: {key}.{name} must be a number, got {v!r}")
    try:
        return HexGrid(**{name: float(v) for name, v in entry.items()})
    except (ValidationError, OverflowError) as e:
        raise ValidationError(f"{path}: {key}: {e}") from None


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in a UTF-8 file; anything else is a ValidationError naming it."""
    try:
        with open_text(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON ({e})") from None
    return _json_object(doc, path, what)


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    doc = read_json_object(path, "manifest")
    cities = {}
    for city, entry in _json_object(doc.get("cities", {}), path, "cities").items():
        entry = _json_object(entry, path, f"cities.{city}")
        cities[city] = _json_paths(entry.get("tasks", {}), path, f"cities.{city}.tasks")
    models = {}
    for model_id, entry in _json_object(doc.get("models", {}), path, "models").items():
        entry = _json_object(entry, path, f"models.{model_id}")
        missing = [k for k in ("dim", "support") if k not in entry]
        if missing:
            raise ValidationError(f"{path}: model {model_id}: missing {', '.join(missing)}")
        try:
            dim = int(entry["dim"])
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{path}: model {model_id}: dim must be an integer, got {entry['dim']!r}") from None
        models[model_id] = ManifestModel(
            model_id=model_id,
            dim=dim,
            support=entry["support"],
            files=_json_paths(entry.get("files", {}), path, f"models.{model_id}.files"),
            encoder=entry.get("encoder"),
            hexgrid=(None if entry.get("hexgrid") is None
                     else _json_hexgrid(entry["hexgrid"], path, f"models.{model_id}.hexgrid")),
        )
    return Manifest(cities=cities, models=models, base_dir=path.parent)


@dataclass
class ValidationReport:
    resolvable: list[tuple[str, str, str]] = field(default_factory=list)  # (model, city, task)
    gaps: list[tuple[str, str, str, str]] = field(default_factory=list)   # + reason
    warnings: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (f"{len(self.resolvable)} resolvable, {len(self.gaps)} gaps, "
                f"{len(self.warnings)} warnings, {len(self.errors)} errors")


def validate_manifest(manifest: Manifest) -> ValidationReport:
    """Structural checks of every (model, city, task) combination; opens no file.
    Unknown tasks, support kinds or encoders, missing task files and bad dims are
    errors. A pair whose embedding file is not listed or not present is a gap,
    which `run` skips; the loaders that `validate` and `run` share read the files."""
    from .pe_encoder import get_encoder

    report = ValidationReport()
    tasks: list[tuple[str, str]] = []  # (city, task) whose file is present
    for city in sorted(manifest.cities):
        for task in sorted(manifest.cities[city]):
            if task not in TASKS:
                report.errors.append(f"city {city}: unknown task {task!r}")
                continue
            p = manifest.resolve(manifest.cities[city][task])
            if not os.path.isfile(p):
                report.errors.append(f"city {city}: task file missing: {p}")
                continue
            tasks.append((city, task))
            if task == "AGE" and city in BENCHMARK_CITIES and city not in AGE_CITIES:
                report.warnings.append(f"AGE restricted: {city} is outside the four AGE cities")

    for model_id in sorted(manifest.models):
        m = manifest.models[model_id]
        if m.support not in SUPPORT_KINDS:
            report.errors.append(f"model {model_id}: unknown support kind {m.support!r}")
            continue
        if m.dim < 1:
            report.errors.append(f"model {model_id}: dim must be positive")
            continue
        if m.support == "coordinate_encoder":
            try:
                enc = get_encoder(m.encoder)
            except ValidationError:
                report.errors.append(f"model {model_id}: unknown encoder {m.encoder!r}")
                continue
            if enc.dim != m.dim:
                report.errors.append(f"model {model_id}: encoder dim {enc.dim} != declared {m.dim}")
                continue
        for city, task in tasks:
            rel = m.files.get(city)
            if m.support == "coordinate_encoder" or (
                    rel is not None and os.path.isfile(manifest.resolve(rel))):
                report.resolvable.append((model_id, city, task))
            else:
                report.gaps.append((model_id, city, task, "embedding file missing"))
    return report
