"""Domain model for cities, tasks, units, labels, and representations.

Also owns the task-dataset CSV format and the run manifest. Everything
here is immutable after load and safe to share across concurrent
evaluation runs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence, TextIO, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .grid import HexGrid


class ValidationError(ValueError):
    """Raised when an input file or domain object violates an invariant;
    `row` is the index of the bad row when `check_rows` raised it."""

    row: int | None = None


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
# A task's primary metric, the one that ranks models, is the first of its kind.
TASK_PRIMARY_METRIC = {task: METRICS_FOR_KIND[kind][0] for task, kind in TASK_LABEL_KIND.items()}

BENCHMARK_CITIES = (
    "London", "New York", "Singapore", "Sydney",
    "Mumbai", "Nairobi", "Jakarta", "Cape Town",
)
# Age-distribution labels are only reliable in these four benchmark cities.
AGE_CITIES = frozenset({"London", "New York", "Singapore", "Sydney"})

SUPPORT_KINDS = ("raster", "cell_table", "entity_set", "coordinate_encoder")

DISTRIBUTION_SUM_TOL = 1e-6
MAX_CLASSES = 1024  # a head's output layer at hidden width 1024 is then 8 MiB per float64 copy


def task_direction(task: str) -> str:
    return METRIC_DIRECTION[TASK_PRIMARY_METRIC[task]]


def age_restricted(city: str, task: str) -> bool:
    """An AGE task in a benchmark city outside the four AGE cities: warned of, never run."""
    return task == "AGE" and city in BENCHMARK_CITIES and city not in AGE_CITIES


class ResultRecord(NamedTuple):
    """The atom of all aggregation; value may be NaN where the metric is undefined."""

    model_id: str
    task: str
    city: str
    seed: int
    protocol: str
    metric: str
    value: float
    n_test: int


def stable_seed(*parts) -> int:
    """Portable 64-bit seed from arbitrary key parts (order-sensitive)."""
    import hashlib  # here, not at module level: `report` takes no digest, and OpenSSL costs ~5 ms to load

    key = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def checked(cls):
    """Class decorator for a NamedTuple record that checks its fields: the record
    defines `_check`, which raises a ValidationError for bad fields, and it runs on
    every record that `__new__` or `_make` builds. `_replace` copies through
    `_make`, pickle and `copy` through `__new__`, so no unchecked record exists."""
    new, make = cls.__new__, cls._make.__func__

    def checked_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    def checked_make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    cls.__new__, cls._make = staticmethod(checked_new), classmethod(checked_make)
    return cls


@checked
class Rect(NamedTuple):
    """Axis-aligned rectangle in WGS84 degrees."""

    x0: float
    y0: float
    x1: float
    y1: float

    def _check(self):
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


def check_rows(rules: list[tuple[np.ndarray, Callable[[int], str]]], path: Path | None = None,
               lines: Sequence[int] = ()) -> None:
    """One flagged pass over a rule table: `rules` holds (rows that break the
    rule, message of row i) pairs in check order. The first row that breaks a
    rule raises the message of its first broken rule, as `path:line: message`
    when a path is given (`lines[i]` is row i's line number). The error's `row`
    is i."""
    bad = np.any([rows for rows, _ in rules], axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        message = next(message(i) for rows, message in rules if rows[i])
        e = ValidationError(message if path is None else f"{path}:{lines[i]}: {message}")
        e.row = i
        raise e


def repeats(keys: Sequence) -> np.ndarray:
    """True for each key equal to an earlier one."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, keys), np.int64, len(keys)) != np.arange(len(keys))


def distribution_sums(labels: np.ndarray) -> np.ndarray:
    """What the sum rule checks and renormalisation divides by."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN rows break other rules
        return labels.sum(axis=1)


def class_count(labels: np.ndarray, n_classes: int | None) -> int:
    """`n_classes` if declared, else one more than the largest class."""
    if n_classes is not None:
        return int(n_classes)
    return int(labels.max()) + 1 if labels.size else 0


def class_count_error(n_classes: int) -> str | None:
    """The error for a class task with `n_classes` classes, or None: with
    fewer than 2 there is nothing to predict, and every score is perfect;
    past MAX_CLASSES a head's output layer would not fit in memory."""
    if n_classes > MAX_CLASSES:
        return f"a class task may have at most {MAX_CLASSES} classes, got {n_classes}"
    return f"a class task needs at least 2 classes, got {n_classes}" if n_classes < 2 else None


def task_row_rules(unit_ids: Sequence[str], lons: np.ndarray, lats: np.ndarray, cell_extents: np.ndarray,
                   is_cell: np.ndarray, kind: str, labels: np.ndarray, n_classes: int | None,
                   extent: Rect | None) -> list:
    """Every rule for a valid task row, as a `check_rows` table over its columns.

    Unit rules: a point unit's (x0, y0, x1, y1) row is all NaN. A raster cell's
    row is a finite, non-inverted Rect (those errors are Rect's own); then, for
    every unit: a nonempty unit_id without ',', '"', CR or LF, lon in [-180,
    180] and lat in [-90, 90]; then a raster cell has positive area (for finite
    floats x1 > x0 is x1 - x0 > 0) and contains the unit's point. Label rules:
    a finite scalar; a whole, finite class in [0, n_classes); a nonnegative,
    finite distribution whose `distribution_sums` is 1 within DISTRIBUTION_SUM_TOL.
    Dataset rules: no unit_id of an earlier row, and a unit inside `extent`
    (None skips this rule: an extent derived from the units holds them all)."""
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
    if kind == "scalar":
        rules.append((~np.isfinite(labels), lambda i: f"unit {unit_ids[i]}: non-finite label"))
    elif kind == "class":
        whole = (np.isfinite(labels) & (np.floor(labels) == labels) if labels.dtype.kind == "f"
                 else np.ones(n, dtype=bool))
        rules += [
            (~whole, lambda i: f"unit {unit_ids[i]}: class {labels[i]} is not an integer"),
            ((labels < 0) | (labels >= n_classes),
             lambda i: f"unit {unit_ids[i]}: class {labels[i]} outside [0,{n_classes})"),
        ]
    else:
        sums = distribution_sums(labels)
        rules += [
            ((labels < 0).any(axis=1), lambda i: f"unit {unit_ids[i]}: negative probability"),
            (~np.isfinite(labels).all(axis=1), lambda i: f"unit {unit_ids[i]}: non-finite probability"),
            (np.abs(sums - 1.0) > DISTRIBUTION_SUM_TOL,
             lambda i: f"unit {unit_ids[i]}: distribution sums to {sums[i].item()!r}, not 1"),
        ]
    rules.append((repeats(unit_ids), lambda i: f"duplicate unit_id {unit_ids[i]!r}"))
    if extent is not None:
        rules.append((~((extent.x0 <= lons) & (lons <= extent.x1) & (extent.y0 <= lats) & (lats <= extent.y1)),
                      lambda i: f"unit {unit_ids[i]} outside dataset extent"))
    return rules


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
    Every row must pass `task_row_rules`, checked in one pass. Labels are
    packed into numpy arrays: scalar -> (n,) float, class -> (n,) int,
    distribution -> (n, K) float. An `extent` of None is the extent of the
    units' points and cells.
    """

    def __init__(self, city: str, task: str, unit_ids: Sequence[str], lons: np.ndarray,
                 lats: np.ndarray, cell_extents: np.ndarray, labels: np.ndarray, extent: Rect | None,
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
        self.label_kind = kind = TASK_LABEL_KIND[task]
        given = labels = np.asarray(labels)
        if labels.shape[0] != len(unit_ids):
            raise ValidationError(f"{labels.shape[0]} labels for {len(unit_ids)} units")
        if labels.ndim != (2 if kind == "distribution" else 1):
            raise ValidationError(f"{kind} labels must be {2 if kind == 'distribution' else 1}-d")
        if kind == "class":
            try:
                with np.errstate(invalid="ignore"):  # NaN and inf break the whole-class rule
                    labels = labels.astype(np.int64)
            except OverflowError:  # a Python int past int64 in an object array
                raise ValidationError("class index outside the int64 range") from None
            n_classes = class_count(labels, n_classes)
        else:
            given = labels = labels.astype(np.float64)
            n_classes = labels.shape[1] if kind == "distribution" else None
        check_rows(task_row_rules(unit_ids, lons, lats, self.cell_extents, self.is_cell, kind, given,
                                  n_classes, extent))
        if extent is None:
            if not unit_ids:
                raise ValidationError("empty dataset and no extent metadata")
            # Python's min and max keep the first of 0.0 and -0.0; np.min may not
            cells = self.cell_extents[self.is_cell]
            xs = lons.tolist() + cells[:, [0, 2]].ravel().tolist()
            ys = lats.tolist() + cells[:, [1, 3]].ravel().tolist()
            extent = Rect(min(xs), min(ys), max(xs), max(ys))
        if kind == "class" and (error := class_count_error(n_classes)):
            raise ValidationError(error)
        self.extent = extent
        self.n_classes = n_classes
        if kind == "distribution":
            # Renormalize CSV round-off after validation; exact sums stay bit-identical.
            sums = distribution_sums(labels)
            off = sums != 1.0
            if np.any(off):
                labels = labels.copy()
                labels[off] = labels[off] / sums[off, None]

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


WRITE_BLOCK_ROWS = 256  # rows per write: a writer holds one block's text, never the whole file's


def _fmt_columns(block) -> list[list[str]]:
    """The `_fmt` text of each column of a 2-D block of numbers, each distinct
    float64 bit pattern of the block formatted once: raster cells share their
    edges, and labels and vectors repeat values. The bit pattern tells 0.0 from
    -0.0 and keeps every NaN apart, so each keeps its own text."""
    values = np.asarray(block, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array(list(map(_fmt, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse.reshape(values.shape)].T.tolist()


def write_rows(f: TextIO, newline: str, values: np.ndarray, before: Sequence[Sequence[str]] = (),
               after: Sequence[Sequence[str]] = ()) -> None:
    """Write one CSV line per row of the 2-D `values`: that row's fields of the
    text columns `before`, the `_fmt` text of its values, then its fields of
    the columns `after`, joined by ',' and ended by `newline`, a block of
    WRITE_BLOCK_ROWS rows per write. No field is quoted, so none may hold
    ',', '"', CR or LF."""
    for start in range(0, len(values), WRITE_BLOCK_ROWS):
        block = slice(start, start + WRITE_BLOCK_ROWS)
        columns = [c[block] for c in before] + _fmt_columns(values[block]) + [c[block] for c in after]
        f.write(newline.join(map(",".join, zip(*columns))) + newline)


def write_atomic(path: Path, text: str) -> None:
    """The one writer of the run directory: `text` as UTF-8, newlines as given,
    into a sibling `<name>.tmp` that then replaces `path`. A failed write
    removes the temp file and leaves `path` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_text(path: Path):
    """Open a UTF-8 text input for reading (newlines untranslated, as the csv
    module wants); bytes that are not UTF-8 raise a ValidationError naming it."""
    try:
        with path.open("r", encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text ({e.reason})") from None


def header_words(line: str, maxsplit: int = -1) -> list[str]:
    """The words of a comment or header line, without its line end, split at
    the single space the writers emit and nowhere else: other whitespace stays
    inside a word, where `parse_field` or a key lookup rejects it."""
    return line.rstrip("\r\n").split(" ", maxsplit)


def read_table(path: Path, keys: Mapping[str, Callable]) -> tuple[dict, Sequence[int], list[list[str]]]:
    """The one CSV dialect of every input table: UTF-8 text split into lines at
    CR, LF or CRLF only, blank lines skipped. Each `#` line before the header
    is a comment, under the one comment rule: `# key value`, split by
    `header_words`, names a key of the format's key table `keys` at most once,
    and `meta[key]` is (line, `keys[key](value)`). An unknown or repeated key, a
    value whose parser raises ValueError or TypeError, and a `#` followed by
    whitespace other than one space or a key that is empty or holds whitespace
    raise a ValidationError naming path:line, in line order, before any header
    rule; `#text` and a bare `#` are plain comments. The header and each later
    line is one row, parsed on its own, so an open quote never runs on into the
    next line. Returns (meta, lines, rows): `rows[0]` is the header, `lines[i]`
    the physical line of `rows[i]`; a line the csv module rejects raises a
    ValidationError naming path:line."""
    with open_text(path) as f:
        text = f.readlines()  # split at CR, LF or CRLF, endings kept
    meta = {}
    head = 0
    while head < len(text) and (text[head].startswith("#") or text[head] in ("\n", "\r\n", "\r")):
        words = header_words(text[head], 2)
        key = words[1] if words[0] == "#" and len(words) > 1 else None
        head += 1
        if key is None and not words[0][1:2].isspace():
            continue  # a blank line, `#text` or a bare `#`
        if not key or any(map(str.isspace, key)):
            raise ValidationError(f"{path}:{head}: malformed comment")
        if key not in keys or key in meta:
            raise ValidationError(f"{path}:{head}: {'repeated' if key in meta else 'unknown'} key {key!r}")
        try:
            meta[key] = (head, keys[key](words[2] if len(words) > 2 else ""))
        except (TypeError, ValueError):
            raise ValidationError(f"{path}:{head}: malformed '# {key}' line") from None
    body = text[head:]
    if body:  # so that a quote open on the last line closes with it, as on every other
        body[-1] = body[-1].rstrip("\r\n")
    try:
        rows = list(csv.reader(body))
    except csv.Error:
        rows = []
    if len(rows) != len(body):  # a quoted field ran on, or the csv module rejected a line
        rows = [_csv_line(path, ln, line.rstrip("\r\n")) for ln, line in enumerate(body, head + 1)]
    lines: Sequence[int] = range(head + 1, len(text) + 1)
    if not all(rows):  # blank lines in the body
        lines = [ln for ln, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    return meta, lines, rows


def _csv_line(path: Path, ln: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as e:
        raise ValidationError(f"{path}:{ln}: malformed CSV ({e})") from None


# The characters a parsed field may hold: printable ASCII other than space and '_'.
# `float` and `int` would also read surrounding spaces and tabs, non-ASCII
# digits and '_' as a digit separator, none of which a writer emits.
_FIELD_CHARS = re.compile(r"[!-^`-~]*")


def parse_field(parse, text: str):
    """`parse(text)` of a field that holds only `_FIELD_CHARS`; the ValueError
    of any other text names its first other character."""
    if (k := _FIELD_CHARS.match(text).end()) < len(text):
        raise ValueError(f"{text!r} holds {text[k]!r}")
    return parse(text)


def parse_rows(header: Sequence[str], rows: list[list[str]], parsers: Sequence) -> tuple[list, list]:
    """The one row parser of every input table: field j of each row through
    `parsers[j]` (None keeps the text), one sequence per column. Returns
    (columns, rules), the two `check_rows` rules of a row that does not read:
    a field count other than the header's, then the first field, in column
    order, that holds a character outside `_FIELD_CHARS` or whose parser
    raises ValueError or OverflowError, named by its header. A ragged row
    reads as a row of "0" fields, a field that does not read as 0."""
    n, width = len(rows), len(header)
    ragged = np.fromiter(map(len, rows), np.int64, n) != width
    padded = [r if len(r) == width else ["0"] * width for r in rows] if ragged.any() else rows
    columns = list(zip(*padded)) or [()] * width
    errors: dict[int, str] = {}  # row -> message of its first field that does not read
    for j, parse in enumerate(parsers):
        if parse is None:
            continue
        try:
            if not _FIELD_CHARS.fullmatch("".join(columns[j])):
                raise ValueError
            columns[j] = list(map(parse, columns[j]))
        except (ValueError, OverflowError):
            out = []
            for i, text in enumerate(columns[j]):
                try:
                    out.append(parse_field(parse, text))
                except (ValueError, OverflowError) as e:
                    errors.setdefault(i, f"column {header[j]!r}: {e}")
                    out.append(0)
            columns[j] = out
    unread = np.zeros(n, dtype=bool)
    unread[list(errors)] = True
    return columns, [(ragged, lambda i: f"expected {width} fields, got {len(rows[i])}"),
                     (unread, errors.__getitem__)]


# The task file's comment keys with the parsers of their values, and its
# columns: the unit columns, the four cell-extent columns of a raster-cell
# dataset, then the label columns of its kind.
_TASK_KEYS = {"task": str, "city": str, "classes": lambda text: parse_field(int, text),
              "extent": lambda text: Rect._make(parse_field(float, w) for w in header_words(text))}
_UNIT_COLUMNS = ["unit_id", "lon", "lat"]
_CELL_COLUMNS = ["x0", "y0", "x1", "y1"]


def _label_columns(kind: str, k: int) -> list[str]:
    """The label columns of a task of label kind `kind`; `k` is the class count of a distribution."""
    return ["value"] if kind == "scalar" else ["class"] if kind == "class" else [f"p_{i}" for i in range(k)]


def load_task_dataset(path: str | Path) -> TaskDataset:
    """Load a task dataset from its canonical CSV form, in the `read_table`
    dialect with the comment keys `_TASK_KEYS`: task, city, extent and (for
    class labels) the declared class count. Load is deterministic and
    order-preserving. A malformed comment or row fails at its line, comments
    first: a malformed `# extent` comes before `no header row`.
    """
    path = Path(path)
    meta, lines, rows = read_table(path, _TASK_KEYS)
    if not rows:
        raise ValidationError(f"{path}: no header row")
    if "task" not in meta or "city" not in meta:
        raise ValidationError(f"{path}: missing '# task ...' / '# city ...' metadata")
    (task_line, task), (_, city) = meta["task"], meta["city"]
    if task not in TASKS:
        raise ValidationError(f"{path}:{task_line}: unknown task {task!r}")
    kind = TASK_LABEL_KIND[task]
    extent = meta["extent"][1] if "extent" in meta else None  # without `# extent` or `# classes`,
    classes_line, n_classes = meta.get("classes", (None, None))  # each is derived from the rows
    if n_classes is not None and kind != "class":
        raise ValidationError(f"{path}:{classes_line}: '# classes' is only for a class task")
    if n_classes is not None and (error := class_count_error(n_classes)):
        raise ValidationError(f"{path}:{classes_line}: {error}")

    header, header_line, rows, lines = rows[0], lines[0], rows[1:], lines[1:]
    if header[:3] != _UNIT_COLUMNS:
        raise ValidationError(f"{path}:{header_line}: header must start with unit_id,lon,lat")
    rest = header[3:]
    has_extent = rest[:4] == _CELL_COLUMNS
    label_cols = rest[4:] if has_extent else rest

    if kind == "distribution" and len(label_cols) < 2:
        raise ValidationError(f"{path}:{header_line}: distribution needs >= 2 p_ columns")
    expected = _label_columns(kind, len(label_cols))
    if label_cols != expected:
        raise ValidationError(
            f"{path}:{header_line}: label columns {label_cols} do not match task {task} ({expected})"
        )

    n, n_coords = len(rows), 6 if has_extent else 2
    label = _class_index if kind == "class" else float
    cols, read_rules = parse_rows(header, rows, [None] + [float] * n_coords + [label] * len(label_cols))
    coords = np.column_stack(cols[1:1 + n_coords]).reshape(n, n_coords)
    lons, lats = coords[:, 0], coords[:, 1]
    cells = coords[:, 2:] if has_extent else np.full((n, 4), np.nan)
    unread = read_rules[0][0] | read_rules[1][0]
    if kind == "class":
        labels = np.array(cols[-1], dtype=np.int64)
        n_classes = class_count(labels[~unread], n_classes)  # of the rows that read
    else:
        labels = np.column_stack(cols[1 + n_coords:]).reshape(n, len(label_cols))
        labels = labels[:, 0] if kind == "scalar" else labels
    # TaskDataset checks rows that read. A row that did not, or a raster cell
    # whose x0 reads NaN (TaskDataset would take it for a point), breaks a rule
    # of this combined pass, so the pass raises, at the first bad row.
    if unread.any() or (has_extent and np.isnan(cells[:, 0]).any()):
        check_rows([*read_rules, *task_row_rules(cols[0], lons, lats, cells, np.full(n, has_extent), kind,
                                                 labels, n_classes, extent)], path, lines)
    try:
        return TaskDataset(city, task, cols[0], lons, lats, cells, labels, extent, n_classes=n_classes)
    except ValidationError as e:
        where = path if e.row is None else f"{path}:{lines[e.row]}"
        raise ValidationError(f"{where}: {e}") from None


def _class_index(text: str) -> int:
    """A class index field: an int within int64."""
    c = int(text)
    if not -2**63 <= c < 2**63:
        raise OverflowError("class index outside the int64 range")
    return c


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
    lines.append(",".join(_UNIT_COLUMNS + (_CELL_COLUMNS if has_extent else []) +
                          _label_columns(ds.label_kind, ds.n_classes)))
    coords = [ds.lons, ds.lats, *(ds.cell_extents.T if has_extent else ())]
    classes = [list(map(str, ds.labels.tolist()))] if ds.label_kind == "class" else ()
    values = np.column_stack(coords if classes else [*coords, ds.labels])
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")
        write_rows(f, "\n", values, [ds.unit_ids], classes)


# ---------------------------------------------------------------------------
# Representation supports

@checked
class RasterSupport(NamedTuple):
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

    def _check(self):
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


@checked
class EntitySetSupport(NamedTuple):
    """Point entities (POI-like) each carrying an embedding vector."""

    lons: np.ndarray
    lats: np.ndarray
    vectors: np.ndarray

    def _check(self):
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


@checked
class CellTableSupport(NamedTuple):
    """Embedding table keyed by hex cell id of its own `grid`."""

    grid: HexGrid
    table: Mapping[tuple[int, int], np.ndarray]

    def _check(self):
        if self.grid is None:
            raise ValidationError("cell table needs the hex grid its keys are on")
        dims = {v.shape[0] for v in self.table.values()}
        if len(dims) > 1:
            raise ValidationError(f"cell table has mixed vector lengths {sorted(dims)}")

    @property
    def dim(self) -> int:
        for v in self.table.values():
            return v.shape[0]
        return 0


class CoordinateEncoderSupport(NamedTuple):
    """A deterministic function of n coordinates: (lons, lats) -> (n, dim) embedding rows."""

    encoder_id: str
    dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]


class Representation(NamedTuple):
    """An embedding with a declared spatial support."""

    model_id: str
    support: RasterSupport | CellTableSupport | EntitySetSupport | CoordinateEncoderSupport


# ---------------------------------------------------------------------------
# Manifest

class ManifestModel(NamedTuple):
    model_id: str
    dim: int
    support: str
    files: Mapping[str, str]
    encoder: str | None


class Manifest(NamedTuple):
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


def only_keys(entry: dict, keys, at: str) -> dict:
    """`entry`, if each of its keys is one of `keys`; `at` names it in the error."""
    for k in entry:
        if k not in keys:
            raise ValidationError(f"{at}: unknown key {k!r}")
    return entry


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in a UTF-8 file; anything else is a ValidationError naming it."""
    try:
        with open_text(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON ({e})") from None
    return _json_object(doc, path, what)


def load_manifest(path: str | Path) -> Manifest:
    """The manifest in a JSON file. A key it does not read is an error, as is a
    value of the wrong JSON type; each ValidationError names the file. A model
    of a known support reads `files`, or `encoder` for a coordinate encoder."""
    path = Path(path)
    doc = only_keys(read_json_object(path, "manifest"), ("cities", "models"), str(path))
    cities = {}
    for city, entry in _json_object(doc.get("cities", {}), path, "cities").items():
        entry = only_keys(_json_object(entry, path, f"cities.{city}"), ("tasks",), f"{path}: cities.{city}")
        cities[city] = _json_paths(entry.get("tasks", {}), path, f"cities.{city}.tasks")
    models = {}
    for model_id, entry in _json_object(doc.get("models", {}), path, "models").items():
        at = f"{path}: models.{model_id}"
        entry = only_keys(_json_object(entry, path, f"models.{model_id}"), ("dim", "support", "files", "encoder"), at)
        missing = [k for k in ("dim", "support") if k not in entry]
        if missing:
            raise ValidationError(f"{path}: model {model_id}: missing {', '.join(missing)}")
        if entry["support"] in SUPPORT_KINDS:  # an unknown support is reported by validate_manifest
            reads = "encoder" if entry["support"] == "coordinate_encoder" else "files"
            only_keys(entry, ("dim", "support", reads), at)
        if isinstance(entry["dim"], bool) or not isinstance(entry["dim"], int):
            raise ValidationError(
                f"{path}: model {model_id}: dim must be an integer, got {entry['dim']!r}")
        models[model_id] = ManifestModel(
            model_id=model_id,
            dim=entry["dim"],
            support=entry["support"],
            files=_json_paths(entry.get("files", {}), path, f"models.{model_id}.files"),
            encoder=entry.get("encoder"),
        )
    return Manifest(cities=cities, models=models, base_dir=path.parent)


class ValidationReport(NamedTuple):
    tasks: list[tuple[str, str]]  # (city, task) files that run loads
    resolvable: list[tuple[str, str, str]]  # (model, city, task)
    gaps: list[tuple[str, str, str, str]]   # + reason
    warnings: list[str]
    errors: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (f"{len(self.resolvable)} resolvable, {len(self.gaps)} gaps, "
                f"{len(self.warnings)} warnings, {len(self.errors)} errors")


def validate_manifest(manifest: Manifest) -> ValidationReport:
    """Structural checks of every (model, city, task) combination; opens no file.
    A model id with CR or LF, unknown tasks, support kinds or encoders, missing
    task files and bad dims are errors. A pair whose embedding file is not
    listed or not present is a gap, which `run` skips; an `age_restricted` task
    is a warning and in no pair. `tasks` lists every other (city, task) file,
    which both `validate` and `run` load with the loaders they share."""
    from .pe_encoder import get_encoder

    report = ValidationReport(tasks=[], resolvable=[], gaps=[], warnings=[], errors=[])
    for city in sorted(manifest.cities):
        for task in sorted(manifest.cities[city]):
            if task not in TASKS:
                report.errors.append(f"city {city}: unknown task {task!r}")
                continue
            p = manifest.resolve(manifest.cities[city][task])
            if not os.path.isfile(p):
                report.errors.append(f"city {city}: task file missing: {p}")
                continue
            if age_restricted(city, task):
                report.warnings.append(f"AGE restricted: {city} is outside the four AGE cities")
                continue
            report.tasks.append((city, task))

    for model_id in sorted(manifest.models):
        m = manifest.models[model_id]
        if "\r" in model_id or "\n" in model_id:  # results.csv holds one row per line
            report.errors.append(f"model {model_id!r}: id contains CR or LF")
            continue
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
        for city, task in report.tasks:
            rel = m.files.get(city)
            if m.support == "coordinate_encoder" or (
                    rel is not None and os.path.isfile(manifest.resolve(rel))):
                report.resolvable.append((model_id, city, task))
            else:
                report.gaps.append((model_id, city, task, "embedding file missing"))
    return report
