"""Tests for the domain model, task-dataset format, and manifest validation."""

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urbanbench.core as core
from reference import TaskUnit, contains, dataset, units_of
from urbanbench.cli import main
from urbanbench.core import (
    DISTRIBUTION_SUM_TOL,
    TASK_LABEL_KIND,
    TASKS,
    Rect,
    TaskDataset,
    ValidationError,
    load_manifest,
    load_task_dataset,
    open_text,
    validate_manifest,
    write_task_dataset,
)


def scalar_file(tmp_path, rows, task="POP", city="demo", extent="0.0 0.0 10.0 10.0"):
    lines = [f"# task {task}", f"# city {city}", f"# extent {extent}", "unit_id,lon,lat,value"]
    lines += rows
    p = tmp_path / "task.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestLoadTaskDataset:
    def test_four_scalar_rows(self, tmp_path):
        p = scalar_file(tmp_path, [f"u{i},{i}.0,{i}.0,{i}.5" for i in range(4)])
        ds = load_task_dataset(p)
        assert ds.n == 4
        assert ds.task == "POP"
        assert ds.label_kind == "scalar"
        np.testing.assert_allclose(ds.labels, [0.5, 1.5, 2.5, 3.5])

    def test_order_preserved(self, tmp_path):
        p = scalar_file(tmp_path, ["b,1.0,1.0,1.0", "a,2.0,2.0,2.0"])
        ds = load_task_dataset(p)
        assert ds.unit_ids == ("b", "a")

    def test_age_distribution_accepted(self, tmp_path):
        p = tmp_path / "age.csv"
        p.write_text("# task AGE\n# city London\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,p_0,p_1\nu1,0.5,0.5,0.5,0.5\n")
        ds = load_task_dataset(p)
        assert ds.label_kind == "distribution"
        np.testing.assert_allclose(ds.labels, [[0.5, 0.5]])

    def test_age_nan_probability_names_line(self, tmp_path):
        p = tmp_path / "age.csv"
        p.write_text("# task AGE\n# city London\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,p_0,p_1\nu1,0.5,0.5,0.5,0.5\nu2,0.5,0.5,0.5,nan\n")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}:6: unit u2: non-finite probability"

    def test_age_bad_sum_names_unit(self, tmp_path):
        p = tmp_path / "age.csv"
        p.write_text("# task AGE\n# city London\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,p_0,p_1\nuX,0.5,0.5,0.5,0.6\n")
        with pytest.raises(ValidationError, match="uX"):
            load_task_dataset(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = scalar_file(tmp_path, ["u0,0.0,0.0,1.0", "u1,not_a_number,0.0,1.0"])
        with pytest.raises(ValidationError, match=":6"):
            load_task_dataset(p)

    def test_duplicate_unit_id(self, tmp_path):
        p = scalar_file(tmp_path, ["u0,0.0,0.0,1.0", "u0,1.0,1.0,2.0"])
        with pytest.raises(ValidationError, match="duplicate"):
            load_task_dataset(p)

    def test_unknown_task_rejected(self, tmp_path):
        p = scalar_file(tmp_path, ["u0,0.0,0.0,1.0"], task="FOO")
        with pytest.raises(ValidationError, match="unknown task"):
            load_task_dataset(p)

    def test_class_labels(self, tmp_path):
        p = tmp_path / "luc.csv"
        p.write_text("# task LUC\n# city demo\n# extent 0.0 0.0 1.0 1.0\n# classes 3\n"
                     "unit_id,lon,lat,class\nu0,0.1,0.1,0\nu1,0.2,0.2,2\n")
        ds = load_task_dataset(p)
        assert ds.n_classes == 3
        assert ds.labels.tolist() == [0, 2]

    def test_class_index_out_of_range(self, tmp_path):
        p = tmp_path / "luc.csv"
        p.write_text("# task LUC\n# city demo\n# extent 0.0 0.0 1.0 1.0\n# classes 2\n"
                     "unit_id,lon,lat,class\nu0,0.1,0.1,5\n")
        with pytest.raises(ValidationError):
            load_task_dataset(p)

    @pytest.mark.parametrize("body, message", [
        ("unit_id,lon,lat,value\nu0,1,1,1.0\nu0,2,2,2.0\n", "duplicate unit_id 'u0'"),
        ("unit_id,lon,lat,value\nu0,1,1,1.0\nu1,50,50,2.0\n", "unit u1 outside dataset extent"),
        ("# classes 2\nunit_id,lon,lat,class\nu0,1,1,2\n", "class index outside [0,2)"),
        ("unit_id,lon,lat,value\nu0,1,1,nan\n", "scalar labels must be finite"),
    ], ids=["duplicate", "outside-extent", "class-index", "non-finite"])
    def test_dataset_error_names_file(self, tmp_path, body, message):
        p = tmp_path / "task.csv"
        task = "LUC" if "class" in body else "POP"
        p.write_text(f"# task {task}\n# city demo\n# extent 0 0 10 10\n{body}")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}: {message}"

    def test_malformed_classes_line_names_file(self, tmp_path):
        p = tmp_path / "luc.csv"
        p.write_text("# task LUC\n# city demo\n# extent 0.0 0.0 1.0 1.0\n# classes abc\n"
                     "unit_id,lon,lat,class\nu0,0.1,0.1,0\n")
        with pytest.raises(ValidationError, match=r"luc\.csv: malformed '# classes' line"):
            load_task_dataset(p)

    def test_raster_cell_columns(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("# task POP\n# city demo\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,x0,y0,x1,y1,value\nu0,0.5,0.5,0.0,0.0,1.0,1.0,3.0\n")
        ds = load_task_dataset(p)
        assert ds.is_cell.tolist() == [True]
        assert ds.cell_extents.tolist() == [[0.0, 0.0, 1.0, 1.0]]


    def test_lazy_units_match_columns(self, tmp_path):
        p = tmp_path / "lst.csv"
        p.write_text("# task LST\n# city demo\n# extent 0.0 0.0 2.0 1.0\n"
                     "unit_id,lon,lat,x0,y0,x1,y1,value\n"
                     "a,0.5,0.5,0.0,0.0,1.0,1.0,3.0\nb,1.5,0.5,1.0,0.0,2.0,1.0,4.0\n")
        ds = load_task_dataset(p)
        assert ds.unit_ids == ("a", "b") and ds.is_cell.tolist() == [True, True]
        assert ds.lons.tolist() == [0.5, 1.5] and ds.lats.tolist() == [0.5, 0.5]
        assert ds.cell_extents.tolist() == [[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 2.0, 1.0]]
        assert units_of(ds) == (TaskUnit("a", 0.5, 0.5, "raster_cell", Rect(0, 0, 1, 1)),
                                TaskUnit("b", 1.5, 0.5, "raster_cell", Rect(1, 0, 2, 1)))
        assert not ds.lons.flags.writeable and not ds.cell_extents.flags.writeable

    @pytest.mark.parametrize("row, message", [
        (("", 0.5, 0.5, math.nan, math.nan, math.nan, math.nan), "unit_id must be nonempty"),
        (("u", 0.5, 91.0, math.nan, math.nan, math.nan, math.nan), "unit u: lat 91.0 out of [-90,90]"),
        (("u", 0.5, 0.5, 0.0, 0.0, 0.0, 1.0), "unit u: raster_cell requires a nonempty cell_extent"),
        (("u", 0.5, 0.5, 0.0, 0.0, 0.4, 1.0), "unit u: cell_extent does not contain its point"),
        (("u", 0.5, 0.5, 0.0, 0.0, math.inf, 1.0), "rectangle coordinates must be finite"),
        (("u", 0.5, 0.5, math.nan, 0.0, 1.0, 1.0),
         "unit u: cell_extent only allowed for raster_cell units"),
        pytest.param(("u1", 190.0, 0.0, *[math.nan] * 4), "unit u1: lon 190.0 out of [-180,180]",
                     id="lon-out-of-range"),
        pytest.param(("u1", 0.0, 91.0, *[math.nan] * 4), "unit u1: lat 91.0 out of [-90,90]",
                     id="lat-out-of-range"),
        pytest.param(("u1", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                     "unit u1: raster_cell requires a nonempty cell_extent", id="raster-needs-extent"),
        pytest.param(("u1", 5.0, 5.0, 0.0, 0.0, 1.0, 1.0),
                     "unit u1: cell_extent does not contain its point", id="extent-contains-point"),
        pytest.param(("u", 0.5, 0.5, 1.0, 0.0, 0.0, 1.0),
                     "inverted rectangle Rect(x0=1.0, y0=0.0, x1=0.0, y1=1.0)", id="inverted"),
        pytest.param(("u", 0.5, 0.5, 0.0, 0.0, 0.0, math.nan), "rectangle coordinates must be finite",
                     id="rect-checks-first"),
        pytest.param(("u,1", 0.5, 0.5, *[math.nan] * 4),
                     "unit_id 'u,1' contains ',', '\"', CR or LF", id="id-comma"),
        pytest.param(('"u"', 0.5, 0.5, *[math.nan] * 4),
                     "unit_id '\"u\"' contains ',', '\"', CR or LF", id="id-quote"),
        pytest.param(("u\r", 190.0, 91.0, *[math.nan] * 4),
                     "unit_id 'u\\r' contains ',', '\"', CR or LF", id="id-before-coordinates"),
        pytest.param(("a\nb", 0.5, 0.5, *[math.nan] * 4),
                     "unit_id 'a\\nb' contains ',', '\"', CR or LF", id="id-newline"),
    ])
    def test_columns_get_the_unit_checks(self, row, message):
        # the constructor runs every unit rule on its columns, in order
        uid, lon, lat, *ce = row
        with pytest.raises(ValidationError) as e:
            TaskDataset("demo", "POP", ("ok", uid), np.array([0.5, lon]), np.array([0.5, lat]),
                        np.array([[math.nan] * 4, ce]), np.zeros(2), Rect(0, 0, 1, 1))
        assert str(e.value) == message

    def test_non_finite_distribution_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="distribution entries must be finite"):
                TaskDataset("demo", "AGE", ["a", "b"], [0.5, 0.5], [0.5, 0.5],
                            np.full((2, 4), math.nan), [[0.5, bad], [0.5, 0.5]], Rect(0, 0, 1, 1))

    def test_caller_arrays_stay_writeable(self):
        lons, lats = np.array([0.5, 1.0]), np.array([0.5, 1.0])
        cells = np.full((2, 4), math.nan)
        ds = TaskDataset("demo", "POP", ["a", "b"], lons, lats, cells, np.zeros(2), Rect(0, 0, 2, 2))
        lons[0] = 0.25
        lats[0] = 0.25
        cells[0] = 0.0
        assert ds.lons.tolist() == [0.5, 1.0] and ds.lats.tolist() == [0.5, 1.0]
        assert np.isnan(ds.cell_extents).all()
        assert not ds.lons.flags.writeable and not ds.cell_extents.flags.writeable

    def test_valid_point_columns(self):
        ds = TaskDataset("demo", "POP", ["u1"], [1.0], [2.0], [[math.nan] * 4], [0.5],
                         Rect(0, 0, 2, 2))
        assert ds.unit_ids == ("u1",) and not ds.is_cell.any()

    def test_distribution_sum_overflow_names_line(self, tmp_path):
        p = tmp_path / "age.csv"
        p.write_text("# task AGE\n# city London\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,p_0,p_1\nu1,0.5,0.5,1e308,1e308\n")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}:5: malformed row (intermediate overflow in fsum)"

    def test_class_index_past_int64_names_file(self, tmp_path):
        p = tmp_path / "luc.csv"
        p.write_text("# task LUC\n# city demo\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,class\nu0,0.1,0.1,0\nu1,0.2,0.2,100000000000000000000\n")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}: class index outside the int64 range"


def _ref_load_task_dataset(path):
    """The per-row loader that `load_task_dataset` replaced: one TaskUnit and
    Rect per row, each row checked before the next. The changes: it catches
    OverflowError (math.fsum's intermediate overflow), lines end at CR, LF or
    CRLF only, and the TaskUnit rejects an id the CSV would not keep."""
    meta = {}
    with open_text(path) as f:
        raw_lines = re.split(r"\r\n|\r|\n", f.read())
    if raw_lines[-1] == "":
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

    units = []
    rows = []
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
                if not np.all(np.isfinite(vec)):
                    raise ValidationError(f"unit {unit_id}: non-finite probability")
                s = math.fsum(vec.tolist())
                if abs(s - 1.0) > DISTRIBUTION_SUM_TOL:
                    raise ValidationError(f"unit {unit_id}: distribution sums to {s!r}, not 1")
                rows.append(vec)
        except ValidationError as e:
            raise ValidationError(f"{path}:{ln}: {e}") from None
        except (ValueError, IndexError, OverflowError) as e:
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
    # the per-unit checks of the dataset, in unit order
    seen = set()
    for u in units:
        if u.unit_id in seen:
            raise ValidationError(f"{path}: duplicate unit_id {u.unit_id!r}")
        seen.add(u.unit_id)
        if not contains(extent, u.lon, u.lat):
            raise ValidationError(f"{path}: unit {u.unit_id} outside dataset extent")
    try:
        return dataset(city, task, units, labels, extent, n_classes=n_classes)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# Replacements for one field of a fuzzed row: numbers Python's float() and
# int() read in their own ways, out-of-range and non-finite values, and text.
ODD_FIELDS = st.sampled_from([
    "", "nan", "inf", "-inf", "abc", "190", "-181", "95", "-91", "-1", "5", "1.5", "2",
    "1e308", "99999999999999999999", "-0.0", "0.0", " 0.5", "0.5 ", "1_0", "0x10",
    '"0.5"', '"0.5', "0.3,0.7", "u0",
])


@st.composite
def task_csvs(draw):
    """Task CSV text near the canonical form: clean rows, up to two of them
    with one field replaced, dropped or doubled, blank lines between rows, and
    the extent comment present, absent or malformed."""
    task = draw(st.sampled_from(["POP", "LUC", "AGE"]))
    kind = TASK_LABEL_KIND[task]
    cells = draw(st.booleans())
    k = draw(st.integers(2, 3))
    lines = [f"# task {task}", "# city c"]
    extent = draw(st.sampled_from(["0 0 1 1", "0.0 0.0 1.0 1.0", "-1 -1 2 2", "-1 -1 2 2",
                                   "0.25 0.25 1 1", None, None, "0 0 1", "nan 0 1 1"]))
    if extent is not None:
        lines.append(f"# extent {extent}")
    if kind == "class" and draw(st.booleans()):
        lines.append(f"# classes {draw(st.sampled_from(['3', '3', '2', 'x']))}")
    header = ["unit_id", "lon", "lat"] + (["x0", "y0", "x1", "y1"] if cells else [])
    header += {"scalar": ["value"], "class": ["class"]}.get(kind, [f"p_{i}" for i in range(k)])
    lines.append(",".join(header))
    n = draw(st.integers(0, 8))
    mutated = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 if n else 0))
    coord = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 0.5, 1.0])
    for i in range(n):
        lon, lat = draw(coord), draw(coord)
        fields = [draw(st.sampled_from([f"u{i}", f"u{i}", f"u{i}", f'"u,{i}"'])), repr(lon), repr(lat)]
        if cells:
            w, h = (draw(st.sampled_from([0.1, 0.5, 0.01])) for _ in range(2))
            fields += [repr(lon - w), repr(lat - h), repr(lon + w), repr(lat + h)]
        if kind == "scalar":
            fields.append(repr(draw(st.floats(-10.0, 10.0))))
        elif kind == "class":
            fields.append(str(draw(st.integers(0, 2))))
        else:
            p = draw(st.floats(0.0, 1.0))
            fields += [repr(p), repr(1.0 - p)] if k == 2 else [repr(p), *[repr((1 - p) / 2)] * 2]
        for _ in range(mutated.count(i)):
            j = draw(st.integers(0, len(fields) - 1))
            mutation = draw(st.sampled_from(["replace", "replace", "replace", "drop", "double"]))
            if mutation == "replace":
                fields[j] = draw(ODD_FIELDS)
            elif mutation == "drop":
                del fields[j]
            else:
                fields.insert(j, fields[j])
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


def _outcome(load, path):
    try:
        ds = load(path)
    except ValidationError as e:
        return ("error", str(e))
    e = ds.extent
    return ("ok", ds.city, ds.task, ds.unit_ids, ds.lons.tobytes(), ds.lats.tobytes(),
            ds.cell_extents.tobytes(), ds.is_cell.tobytes(), ds.labels.dtype.str,
            ds.labels.shape, ds.labels.tobytes(), np.array([e.x0, e.y0, e.x1, e.y1]).tobytes(),
            ds.n_classes)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=task_csvs())
def test_columnar_loader_matches_per_row_reference(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "fuzz_task.csv"
    p.write_text(text, encoding="utf-8")
    assert _outcome(load_task_dataset, p) == _outcome(_ref_load_task_dataset, p)


class TestRoundTrip:
    @pytest.mark.parametrize("task,labels,n_classes", [
        ("POP", np.array([0.1, 2.5, -3.75]), None),
        ("LUC", np.array([0, 1, 2]), 3),
        ("AGE", np.array([[0.5, 0.25, 0.25], [0.125, 0.375, 0.5], [1.0, 0.0, 0.0]]), None),
    ])
    def test_write_load_write_identical(self, tmp_path, task, labels, n_classes):
        units = [TaskUnit(f"u{i}", 0.25 * i, 0.5 * i) for i in range(3)]
        ds = dataset("demo", task, units, labels, Rect(0, 0, 2, 2), n_classes=n_classes)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_task_dataset(p1, ds)
        write_task_dataset(p2, load_task_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_comma_id_does_not_load(self, tmp_path):
        # "u,1" would be written unquoted and read back as two fields
        p = scalar_file(tmp_path, ["u0,0.5,0.5,1.0", '"u,1",0.5,0.5,1.0'])
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}:6: unit_id 'u,1' contains ',', '\"', CR or LF"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ids=st.lists(st.text(), min_size=1, max_size=6, unique=True),
       data=st.data())
def test_every_accepted_dataset_round_trips(tmp_path_factory, ids, data):
    lons = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(ids), max_size=len(ids)))
    lats = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(ids), max_size=len(ids)))
    try:
        ds = TaskDataset("c", "POP", ids, lons, lats, np.full((len(ids), 4), math.nan),
                         np.arange(len(ids), dtype=float), Rect(-1, -1, 1, 1))
    except ValidationError:
        assert any(not uid or re.search('[,"\r\n]', uid) for uid in ids)
        return
    p1 = tmp_path_factory.getbasetemp() / "round_trip_a.csv"
    p2 = tmp_path_factory.getbasetemp() / "round_trip_b.csv"
    write_task_dataset(p1, ds)
    back = load_task_dataset(p1)
    write_task_dataset(p2, back)
    assert back.unit_ids == ds.unit_ids
    assert p1.read_bytes() == p2.read_bytes()


class TestTaskMetadata:
    def test_metric_mapping_total(self):
        for task in core.TASKS:
            assert task in core.TASK_PRIMARY_METRIC
            assert task in core.TASK_LABEL_KIND
            assert core.TASK_PRIMARY_METRIC[task] in core.METRIC_DIRECTION

    def test_primary_metric_conventions(self):
        assert core.TASK_PRIMARY_METRIC["LUC"] == "macro_f1"
        assert core.TASK_PRIMARY_METRIC["AGE"] == "kl"
        for task in ("RDE", "POP", "GDP", "NTL", "PM25", "LST"):
            assert core.TASK_PRIMARY_METRIC[task] == "r2"

    def test_directions(self):
        assert core.task_direction("LUC") == core.HIGHER_BETTER
        assert core.task_direction("AGE") == core.LOWER_BETTER
        assert core.task_direction("POP") == core.HIGHER_BETTER

    def test_labels_immutable(self, tmp_path):
        p = scalar_file(tmp_path, ["u0,0.0,0.0,1.0"])
        ds = load_task_dataset(p)
        with pytest.raises(ValueError):
            ds.labels[0] = 9.0


def make_manifest(tmp_path, cities, models):
    doc = {"cities": cities, "models": models}
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


class TestManifest:
    def _write_tasks(self, tmp_path, city, tasks):
        out = {}
        for task in tasks:
            name = f"{city}_{task}.csv"
            kind = core.TASK_LABEL_KIND[task]
            if kind == "scalar":
                body = "unit_id,lon,lat,value\nu0,0.5,0.5,1.0\n"
            elif kind == "class":
                body = "# classes 2\nunit_id,lon,lat,class\nu0,0.5,0.5,1\n"
            else:
                body = "unit_id,lon,lat,p_0,p_1\nu0,0.5,0.5,0.5,0.5\n"
            (tmp_path / name).write_text(
                f"# task {task}\n# city {city}\n# extent 0.0 0.0 1.0 1.0\n" + body)
            out[task] = name
        return out

    def test_full_grid_resolvable(self, tmp_path):
        tasks = self._write_tasks(tmp_path, "London", core.TASKS)
        p = make_manifest(tmp_path, {"London": {"tasks": tasks}},
                          {"pe": {"dim": 192, "support": "coordinate_encoder",
                                  "encoder": "pe_spherec_approx"}})
        report = validate_manifest(load_manifest(p))
        assert report.ok
        assert len(report.resolvable) == 8
        assert not report.gaps

    def test_age_outside_four_cities_warns(self, tmp_path):
        tasks = self._write_tasks(tmp_path, "Mumbai", ["AGE"])
        p = make_manifest(tmp_path, {"Mumbai": {"tasks": tasks}},
                          {"pe": {"dim": 192, "support": "coordinate_encoder",
                                  "encoder": "pe_spherec_approx"}})
        report = validate_manifest(load_manifest(p))
        assert any("AGE restricted" in w for w in report.warnings)

    def test_missing_embedding_is_gap_not_fatal(self, tmp_path):
        tasks = self._write_tasks(tmp_path, "demo_city", ["POP"])
        p = make_manifest(tmp_path, {"demo_city": {"tasks": tasks}},
                          {"m": {"dim": 4, "support": "raster",
                                 "files": {"demo_city": "missing.erf"}}})
        report = validate_manifest(load_manifest(p))
        assert report.ok
        assert report.gaps and report.gaps[0][3] == "embedding file missing"

    def test_dim_mismatch_is_error(self, tmp_path, capsys):
        from urbanbench.align import write_erf
        from urbanbench.core import RasterSupport

        tasks = self._write_tasks(tmp_path, "demo_city", ["POP"])
        write_erf(tmp_path / "emb.erf", RasterSupport(
            0, 0, 0.5, 0.5, 2, 2, np.zeros((2, 2, 3), dtype=np.float32)))
        p = make_manifest(tmp_path, {"demo_city": {"tasks": tasks}},
                          {"m": {"dim": 4, "support": "raster",
                                 "files": {"demo_city": "emb.erf"}}})
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr().out
        assert "error: model m, city demo_city: file dim 3 != declared 4\n" in out
        assert "ok: " not in out

    def test_dim_mismatch_across_cities(self, tmp_path, capsys):
        from urbanbench.align import write_erf
        from urbanbench.core import RasterSupport

        city_entries = {}
        for city, dim in (("a_city", 3), ("b_city", 5)):
            tasks = self._write_tasks(tmp_path, city, ["POP"])
            city_entries[city] = {"tasks": tasks}
            write_erf(tmp_path / f"{city}.erf", RasterSupport(
                0, 0, 0.5, 0.5, 2, 2, np.zeros((2, 2, dim), dtype=np.float32)))
        p = make_manifest(tmp_path, city_entries,
                          {"m": {"dim": 3, "support": "raster",
                                 "files": {"a_city": "a_city.erf", "b_city": "b_city.erf"}}})
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr().out
        assert "error: model m, city b_city: file dim 5 != declared 3\n" in out
        assert "ok: m / a_city / POP\n" in out and "ok: m / b_city" not in out

    def test_unknown_encoder_is_error(self, tmp_path):
        tasks = self._write_tasks(tmp_path, "demo_city", ["POP"])
        p = make_manifest(tmp_path, {"demo_city": {"tasks": tasks}},
                          {"m": {"dim": 8, "support": "coordinate_encoder",
                                 "encoder": "nope"}})
        report = validate_manifest(load_manifest(p))
        assert not report.ok
