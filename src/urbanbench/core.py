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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .grid import HexGrid


class ValidationError(ValueError):
    """Raised when an input file or domain object violates an invariant."""


GEOMETRY_KINDS = ("point", "raster_cell")
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

    def contains(self, lon: float, lat: float) -> bool:
        return self.x0 <= lon <= self.x1 and self.y0 <= lat <= self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))


@dataclass(frozen=True)
class TaskUnit:
    """One prediction target: a point or raster cell with a representative point."""

    unit_id: str
    lon: float
    lat: float
    geometry_kind: str = "point"
    cell_extent: Rect | None = None

    def __post_init__(self):
        if not self.unit_id:
            raise ValidationError("unit_id must be nonempty")
        if self.geometry_kind not in GEOMETRY_KINDS:
            raise ValidationError(f"unknown geometry kind {self.geometry_kind!r}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValidationError(f"unit {self.unit_id}: lon {self.lon} out of [-180,180]")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"unit {self.unit_id}: lat {self.lat} out of [-90,90]")
        if self.geometry_kind == "raster_cell":
            if self.cell_extent is None or not self.cell_extent.nondegenerate:
                raise ValidationError(f"unit {self.unit_id}: raster_cell requires a nonempty cell_extent")
            if not self.cell_extent.contains(self.lon, self.lat):
                raise ValidationError(f"unit {self.unit_id}: cell_extent does not contain its point")
        elif self.cell_extent is not None:
            raise ValidationError(f"unit {self.unit_id}: cell_extent only allowed for raster_cell units")


class TaskDataset:
    """One city-task pair: units, parallel labels, and spatial extent.

    Immutable after construction. Labels are packed into numpy arrays:
    scalar -> (n,) float, class -> (n,) int, distribution -> (n, K) float.
    """

    def __init__(
        self,
        city: str,
        task: str,
        units: Sequence[TaskUnit],
        labels: np.ndarray,
        extent: Rect,
        n_classes: int | None = None,
    ):
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}; expected one of {TASKS}")
        if not city:
            raise ValidationError("city must be nonempty")
        self.city = city
        self.task = task
        self.units = tuple(units)
        self.extent = extent
        self.label_kind = TASK_LABEL_KIND[task]
        labels = np.asarray(labels)

        n = len(self.units)
        if labels.shape[0] != n:
            raise ValidationError(f"{labels.shape[0]} labels for {n} units")
        seen: set[str] = set()
        for u in self.units:
            if u.unit_id in seen:
                raise ValidationError(f"duplicate unit_id {u.unit_id!r}")
            seen.add(u.unit_id)
            if not extent.contains(u.lon, u.lat):
                raise ValidationError(f"unit {u.unit_id} outside dataset extent")

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
            labels = labels.astype(np.int64)
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
            sums = labels.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > DISTRIBUTION_SUM_TOL)[0]
            if bad.size:
                ids = ", ".join(self.units[i].unit_id for i in bad[:5])
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
    def n(self) -> int:
        return len(self.units)


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


def load_task_dataset(path: str | Path) -> TaskDataset:
    """Load a task dataset from its canonical CSV form.

    Leading `# key value...` comment lines carry task, city, extent, and
    (for class labels) the declared class count. Load is deterministic and
    order-preserving; malformed rows fail with their line number.
    """
    path = Path(path)
    meta: dict[str, str] = {}
    with open_text(path) as f:
        raw_lines = f.read().splitlines()

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

    header = next(csv.reader([raw_lines[lineno]]))
    header_line = lineno + 1
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

    units: list[TaskUnit] = []
    rows: list = []
    for offset, line in enumerate(raw_lines[lineno:]):
        ln = lineno + offset + 1
        if not line:
            continue
        fields = next(csv.reader([line]))
        if len(fields) != len(header):
            raise ValidationError(f"{path}:{ln}: expected {len(header)} fields, got {len(fields)}")
        try:
            unit_id = fields[0]
            lon = float(fields[1])
            lat = float(fields[2])
            if has_extent:
                cell = Rect(*(float(v) for v in fields[3:7]))
                unit = TaskUnit(unit_id, lon, lat, "raster_cell", cell)
                payload = fields[7:]
            else:
                unit = TaskUnit(unit_id, lon, lat)
                payload = fields[3:]
            if kind == "scalar":
                rows.append(float(payload[0]))
            elif kind == "class":
                rows.append(int(payload[0]))
            else:
                vec = np.array([float(v) for v in payload], dtype=np.float64)
                if np.any(vec < 0):
                    raise ValidationError(f"unit {unit_id}: negative probability")
                s = math.fsum(vec.tolist())
                if abs(s - 1.0) > DISTRIBUTION_SUM_TOL:
                    raise ValidationError(f"unit {unit_id}: distribution sums to {s!r}, not 1")
                rows.append(vec)
        except ValidationError as e:
            raise ValidationError(f"{path}:{ln}: {e}") from None
        except (ValueError, IndexError) as e:
            raise ValidationError(f"{path}:{ln}: malformed row ({e})") from None
        units.append(unit)

    labels = np.array(rows) if kind != "distribution" else np.vstack(rows) if rows else np.zeros((0, 2))
    if "extent" in meta:
        try:
            extent = Rect(*(float(v) for v in meta["extent"].split()))
        except (TypeError, ValueError):
            raise ValidationError(f"{path}: malformed '# extent' line") from None
    else:
        if not units:
            raise ValidationError(f"{path}: empty dataset and no extent metadata")
        xs = [u.lon for u in units] + [v for u in units if u.cell_extent for v in (u.cell_extent.x0, u.cell_extent.x1)]
        ys = [u.lat for u in units] + [v for u in units if u.cell_extent for v in (u.cell_extent.y0, u.cell_extent.y1)]
        extent = Rect(min(xs), min(ys), max(xs), max(ys))

    try:
        n_classes = int(meta["classes"]) if "classes" in meta else None
    except ValueError:
        raise ValidationError(f"{path}: malformed '# classes' line") from None
    return TaskDataset(city, task, units, labels, extent, n_classes=n_classes)


def write_task_dataset(path: str | Path, ds: TaskDataset) -> None:
    """Write the canonical CSV form; load(write(ds)) round-trips byte-identically."""
    path = Path(path)
    has_extent = any(u.geometry_kind == "raster_cell" for u in ds.units)
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
    for i, u in enumerate(ds.units):
        row = [u.unit_id, _fmt(u.lon), _fmt(u.lat)]
        if has_extent:
            ce = u.cell_extent
            if ce is None:
                raise ValidationError(f"unit {u.unit_id}: mixed geometries in raster_cell dataset")
            row += [_fmt(ce.x0), _fmt(ce.y0), _fmt(ce.x1), _fmt(ce.y1)]
        if ds.label_kind == "scalar":
            row.append(_fmt(ds.labels[i]))
        elif ds.label_kind == "class":
            row.append(str(int(ds.labels[i])))
        else:
            row += [_fmt(v) for v in ds.labels[i]]
        lines.append(",".join(row))
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

    def cell_index(self, lon: float, lat: float) -> tuple[int, int] | None:
        """(row, col) of the cell containing the point; half-open, max edge closed."""
        x1 = self.x0 + self.ncols * self.dx
        y1 = self.y0 + self.nrows * self.dy
        if not (self.x0 <= lon <= x1 and self.y0 <= lat <= y1):
            return None
        col = min(int((lon - self.x0) / self.dx), self.ncols - 1)
        row = min(int((lat - self.y0) / self.dy), self.nrows - 1)
        return (row, col)


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


def validate_manifest(manifest: Manifest, probe_files: bool = True) -> ValidationReport:
    """Cross-check every (model, city, task) combination without side effects.

    Missing embedding files are gaps, not fatal; structural problems (bad
    support kind, a file dim other than the declared one) are errors. With
    `probe_files=False` embedding files are not opened: `run` reads each one
    anyway and checks its dim there, so a bad file fails only its own pairs.
    """
    from . import align  # file probing lives with the file formats
    from .pe_encoder import get_encoder

    report = ValidationReport()
    task_meta: dict[tuple[str, str], bool] = {}
    for city in sorted(manifest.cities):
        for task in sorted(manifest.cities[city]):
            if task not in TASKS:
                report.errors.append(f"city {city}: unknown task {task!r}")
                task_meta[(city, task)] = False
                continue
            p = manifest.resolve(manifest.cities[city][task])
            if not os.path.isfile(p):
                report.errors.append(f"city {city}: task file missing: {p}")
                task_meta[(city, task)] = False
                continue
            task_meta[(city, task)] = True
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
                report.errors.append(
                    f"model {model_id}: encoder dim {enc.dim} != declared {m.dim}"
                )
                continue
        for city in sorted(manifest.cities):
            city_ok = True
            if m.support != "coordinate_encoder":
                rel = m.files.get(city)
                if rel is None or not os.path.isfile(manifest.resolve(rel)):
                    for task, ok in sorted(task_meta.items()):
                        if task[0] == city and ok:
                            report.gaps.append((model_id, city, task[1], "embedding file missing"))
                    continue
                fpath = manifest.resolve(rel)
                try:
                    file_dim = align.peek_embedding_dim(fpath, m.support) if probe_files else m.dim
                except (ValidationError, OSError) as e:
                    report.errors.append(f"model {model_id}, city {city}: {e}")
                    continue
                if file_dim != m.dim:
                    report.errors.append(
                        f"model {model_id}, city {city}: file dim {file_dim} != declared {m.dim}"
                    )
                    city_ok = False
            if not city_ok:
                continue
            for (c, task), ok in sorted(task_meta.items()):
                if c == city and ok:
                    report.resolvable.append((model_id, city, task))
    return report
