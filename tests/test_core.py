"""Tests for the domain model, task-dataset format, and manifest validation."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urbanbench.core as core
from reference import TaskUnit, contains, dataset, strict, units_of
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
    read_table,
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
        ("unit_id,lon,lat,value\nu0,1,1,1.0\nu0,2,2,2.0\n", "6: duplicate unit_id 'u0'"),
        ("unit_id,lon,lat,value\nu0,1,1,1.0\nu1,50,50,2.0\n", "6: unit u1 outside dataset extent"),
        ("# classes 2\nunit_id,lon,lat,class\nu0,1,1,2\n", "6: unit u0: class 2 outside [0,2)"),
        ("unit_id,lon,lat,value\nu0,1,1,nan\n", "5: unit u0: non-finite label"),
    ], ids=["duplicate", "outside-extent", "class-index", "non-finite"])
    def test_dataset_error_names_file(self, tmp_path, body, message):
        p = tmp_path / "task.csv"
        task = "LUC" if "class" in body else "POP"
        p.write_text(f"# task {task}\n# city demo\n# extent 0 0 10 10\n{body}")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}:{message}"

    def test_malformed_classes_line_names_file(self, tmp_path):
        p = tmp_path / "luc.csv"
        p.write_text("# task LUC\n# city demo\n# extent 0.0 0.0 1.0 1.0\n# classes abc\n"
                     "unit_id,lon,lat,class\nu0,0.1,0.1,0\n")
        with pytest.raises(ValidationError, match=r"luc\.csv:4: malformed '# classes' line$"):
            load_task_dataset(p)

    @pytest.mark.parametrize("text, message", [
        ("# task XYZ\n# city demo\nunit_id,lon,lat,value\n", "1: unknown task 'XYZ'"),
        ("\n# city demo\n\n# task POP\n# extent 0 0 1\nunit_id,lon,lat,value\n", "5: malformed '# extent' line"),
        ("# task POP\n\n# city demo\n# extent 0 0 1 1\nunit_id,lat,lon,value\n",
         "5: header must start with unit_id,lon,lat"),
        # Python's float and int would read each of these words
        ("# task POP\n# city demo\n# extent 0 0 1_0 1\nunit_id,lon,lat,value\n", "3: malformed '# extent' line"),
        ("# task POP\n# city demo\n# extent 0 0 \u0661 1\nunit_id,lon,lat,value\n",
         "3: malformed '# extent' line"),
        ("# task LUC\n# city demo\n# classes 1_0\nunit_id,lon,lat,class\n", "3: malformed '# classes' line"),
        ("# task LUC\n# city demo\n# classes \u0663\nunit_id,lon,lat,class\n", "3: malformed '# classes' line"),
        # each of these numbers reads, but the words are split only at the single space the writer emits
        *((f"# task POP\n# city demo\n# extent {extent}\nunit_id,lon,lat,value\n", "3: malformed '# extent' line")
          for extent in ("0\u00a00 1\u20031", "0\x1c0 1 1", "0  0 1 1", "0 0 1 1 ")),
    ], ids=["task", "extent", "header", "extent-underscore", "extent-arabic-indic-digit",
            "classes-underscore", "classes-arabic-indic-digit", "extent-no-break-and-em-space",
            "extent-file-separator", "extent-double-space", "extent-trailing-space"])
    def test_metadata_error_names_line(self, tmp_path, text, message):
        p = tmp_path / "task.csv"
        p.write_text(text + "u0,0.1,0.1,0\n", encoding="utf-8")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}:{message}"

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
            with pytest.raises(ValidationError, match="^unit a: non-finite probability$"):
                TaskDataset("demo", "AGE", ["a", "b"], [0.5, 0.5], [0.5, 0.5],
                            np.full((2, 4), math.nan), [[0.5, bad], [0.5, 0.5]], Rect(0, 0, 1, 1))

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
    def test_fractional_class_rejected(self, bad):
        cells = np.full((2, 4), math.nan)
        with pytest.raises(ValidationError) as e:
            TaskDataset("demo", "LUC", ["a", "b"], [0.5, 0.5], [0.5, 0.5], cells, [bad, 2.9],
                        Rect(0, 0, 1, 1))
        assert str(e.value) == f"unit a: class {bad} is not an integer"
        # the labels are read as given, so an earlier bad row still wins
        with pytest.raises(ValidationError, match="^unit a: lon 190.0 out of"):
            TaskDataset("demo", "LUC", ["a", "b"], [190.0, 0.5], [0.5, 0.5], cells, [0, bad],
                        Rect(0, 0, 1, 1))

    def test_whole_float_classes_load(self):
        ds = TaskDataset("demo", "LUC", ["a", "b"], [0.5, 0.5], [0.5, 0.5], np.full((2, 4), math.nan),
                         [1.0, 2.0], Rect(0, 0, 1, 1))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 2] and ds.n_classes == 3

    def test_row_rules_run_once_per_load(self, tmp_path, monkeypatch):
        calls = []
        rules = core.task_row_rules
        monkeypatch.setattr(core, "task_row_rules", lambda *a: calls.append(1) or rules(*a))
        load_task_dataset(scalar_file(tmp_path, ["u1,1.0,1.0,3.0", "u2,2.0,2.0,4.0"]))
        assert len(calls) == 1

    def test_derived_extent_holds_points_and_cells(self):
        ds = TaskDataset("demo", "POP", ["a", "b"], [0.5, 3.0], [0.5, 4.0],
                         [[0.0, 0.0, 1.0, 1.0], [math.nan] * 4], [1.0, 2.0], None)
        assert ds.extent == Rect(0.0, 0.0, 3.0, 4.0)
        with pytest.raises(ValidationError, match="^empty dataset and no extent metadata$"):
            TaskDataset("demo", "POP", [], [], [], np.zeros((0, 4)), np.zeros(0), None)

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
        # 1e308 + 1e308 is inf: the sum rule reads the sum renormalisation would divide by
        assert str(e.value) == f"{p}:5: unit u1: distribution sums to inf, not 1"

    def test_class_index_past_int64_names_file(self, tmp_path):
        p = tmp_path / "luc.csv"
        p.write_text("# task LUC\n# city demo\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,class\nu0,0.1,0.1,0\nu1,0.2,0.2,100000000000000000000\n")
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == f"{p}:6: column 'class': class index outside the int64 range"


def _ref_load_task_dataset(path):
    """A row-by-row loader to check `load_task_dataset` against: one TaskUnit
    and Rect per row, each row checked before the next. A row's field count
    and numbers come first, then its unit, its label, and the dataset rules (a
    repeated unit_id, a unit outside the `# extent`). Without `# classes`, the
    class count is one more than the largest class of the rows that read."""
    meta, lines, rows = read_table(path)
    if not rows:
        raise ValidationError(f"{path}: no header row")
    if "task" not in meta or "city" not in meta:
        raise ValidationError(f"{path}: missing '# task ...' / '# city ...' metadata")
    (task_line, task), (_, city) = meta["task"], meta["city"]
    if task not in TASKS:
        raise ValidationError(f"{path}:{task_line}: unknown task {task!r}")
    extent = None
    if "extent" in meta:
        try:
            extent = Rect(*(float(strict(v)) for v in meta["extent"][1].split(" ")))
        except (TypeError, ValueError):
            raise ValidationError(f"{path}:{meta['extent'][0]}: malformed '# extent' line") from None
    try:
        n_classes = int(strict(meta["classes"][1])) if "classes" in meta else None
    except ValueError:
        raise ValidationError(f"{path}:{meta['classes'][0]}: malformed '# classes' line") from None

    header, header_line = rows[0], lines[0]
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

    def read(fields):
        """The row's numbers, or the message of the first that does not parse."""
        if len(fields) != len(header):
            return f"expected {len(header)} fields, got {len(fields)}"
        numbers = []
        for name, v in zip(header[1:], fields[1:]):
            try:
                strict(v)
                if kind == "class" and name == "class":
                    c = int(v)
                    if not -2**63 <= c < 2**63:
                        raise OverflowError("class index outside the int64 range")
                    numbers.append(c)
                else:
                    numbers.append(float(v))
            except (ValueError, OverflowError) as e:
                return f"column {name!r}: {e}"
        return numbers

    read_rows = [(ln, fields, read(fields)) for ln, fields in zip(lines[1:], rows[1:])]
    if kind == "class" and n_classes is None:
        n_classes = max([r[-1] for _, _, r in read_rows if not isinstance(r, str)], default=-1) + 1
    units = []
    rows = []
    for ln, fields, numbers in read_rows:
        try:
            if isinstance(numbers, str):
                raise ValidationError(numbers)
            unit_id, (lon, lat) = fields[0], numbers[:2]
            if has_extent:
                unit = TaskUnit(unit_id, lon, lat, "raster_cell", Rect(*numbers[2:6]))
                payload = numbers[6:]
            else:
                unit = TaskUnit(unit_id, lon, lat)
                payload = numbers[2:]
            if kind == "scalar":
                if not math.isfinite(payload[0]):
                    raise ValidationError(f"unit {unit_id}: non-finite label")
                rows.append(payload[0])
            elif kind == "class":
                if not 0 <= payload[0] < n_classes:
                    raise ValidationError(f"unit {unit_id}: class {payload[0]} outside [0,{n_classes})")
                rows.append(payload[0])
            else:
                vec = np.array(payload, dtype=np.float64)
                if np.any(vec < 0):
                    raise ValidationError(f"unit {unit_id}: negative probability")
                if not np.all(np.isfinite(vec)):
                    raise ValidationError(f"unit {unit_id}: non-finite probability")
                with np.errstate(over="ignore"):
                    s = vec.sum()
                if abs(s - 1.0) > DISTRIBUTION_SUM_TOL:
                    raise ValidationError(f"unit {unit_id}: distribution sums to {s.item()!r}, not 1")
                rows.append(vec)
            if any(u.unit_id == unit_id for u in units):
                raise ValidationError(f"duplicate unit_id {unit_id!r}")
            if extent is not None and not contains(extent, lon, lat):
                raise ValidationError(f"unit {unit_id} outside dataset extent")
        except ValidationError as e:
            raise ValidationError(f"{path}:{ln}: {e}") from None
        units.append(unit)

    labels = (np.array(rows) if kind != "distribution" else
              np.vstack(rows) if rows else np.zeros((0, len(label_cols))))
    if extent is None:
        if not units:
            raise ValidationError(f"{path}: empty dataset and no extent metadata")
        xs = [u.lon for u in units] + [v for u in units if u.cell_extent for v in (u.cell_extent.x0, u.cell_extent.x1)]
        ys = [u.lat for u in units] + [v for u in units if u.cell_extent for v in (u.cell_extent.y0, u.cell_extent.y1)]
        extent = Rect(min(xs), min(ys), max(xs), max(ys))
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


def test_sum_rule_reads_the_renormalised_sum(tmp_path):
    # math.fsum puts this row within DISTRIBUTION_SUM_TOL of 1, labels.sum(axis=1) does not
    row = [0.29860197216255235, 0.36607611598395706, 0.12871456260453518, 0.0627946019692693,
           0.14381374727968613]
    assert abs(math.fsum(row) - 1.0) <= DISTRIBUTION_SUM_TOL < abs(np.array([row]).sum(axis=1)[0] - 1.0)
    message = f"unit u1: distribution sums to {np.array(row).sum().item()!r}, not 1"
    with pytest.raises(ValidationError) as e:
        TaskDataset("London", "AGE", ["u1"], [0.5], [0.5], [[math.nan] * 4], [row], Rect(0, 0, 1, 1))
    assert str(e.value) == message
    p = tmp_path / "age.csv"
    p.write_text("# task AGE\n# city London\n# extent 0.0 0.0 1.0 1.0\n"
                 "unit_id,lon,lat,p_0,p_1,p_2,p_3,p_4\nu1,0.5,0.5," + ",".join(map(repr, row)) + "\n")
    with pytest.raises(ValidationError) as e:
        load_task_dataset(p)
    assert str(e.value) == f"{p}:5: {message}"


@st.composite
def bad_column_sets(draw):
    """(task, columns) of up to six task rows, each value drawn to break a row
    rule now and then: every unit, label and dataset rule can fire. The
    extent is [0, 1] x [0, 1] and LUC declares 3 classes."""
    task = draw(st.sampled_from(["POP", "LUC", "AGE"]))
    cells = draw(st.booleans())
    k = draw(st.integers(2, 3))
    ids, lons, lats, extents, labels = [], [], [], [], []
    for i in range(draw(st.integers(1, 6))):
        ids.append(draw(st.sampled_from([f"u{i}"] * 8 + ["u0", "", "a,b", 'q"'])))
        lon, lat = (draw(st.sampled_from([0.5, 0.25, 1.0, -0.0] * 4 + [1.5, 190.0, -91.0, math.nan]))
                    for _ in range(2))
        lons.append(lon)
        lats.append(lat)
        if cells:  # x0 stays a number: a NaN x0 makes a point unit of the row
            w = draw(st.sampled_from([0.1] * 12 + [0.0, -0.05, -0.1, -2.0, math.inf, math.nan]))
            extents.append([0.0 if math.isnan(lon) else lon - 0.1, lat - 0.1, lon + w, lat + 0.1])
        else:
            extents.append([math.nan] * 4)
        if task == "POP":
            labels.append(draw(st.sampled_from([1.5, -2.0, 0.0] * 3 + [math.nan, math.inf])))
        elif task == "LUC":
            labels.append(draw(st.sampled_from([0, 1, 2] * 3 + [3, -1])))
        else:
            p = draw(st.sampled_from([0.25, 0.5, 1.0, 0.1] * 3 + [-0.5, 1.5, math.nan, math.inf]))
            off = draw(st.sampled_from([0.0] * 5 + [1e-7, 1e-5]))
            labels.append([p, 1.0 - p + off] if k == 2 else [p, (1.0 - p) / 2, (1.0 - p) / 2 + off])
    return task, ids, lons, lats, extents, labels


def _columns_error(task, ids, lons, lats, extents, labels):
    """The message TaskDataset raises for the columns, or None."""
    try:
        TaskDataset("c", task, ids, lons, lats, np.array(extents).reshape(-1, 4), labels, Rect(0, 0, 1, 1),
                    n_classes=3 if task == "LUC" else None)
    except ValidationError as e:
        return str(e)
    return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(columns=bad_column_sets())
def test_columns_and_their_csv_fail_alike(tmp_path_factory, columns):
    # TaskDataset raises M exactly when loading the rows as CSV text raises
    # path:line: M, where line holds the first row i whose prefix rows[:i+1] fails
    task, ids, lons, lats, extents, labels = columns
    message = _columns_error(*columns)
    cells = not math.isnan(extents[0][0])
    header = ["unit_id", "lon", "lat"] + (["x0", "y0", "x1", "y1"] if cells else [])
    header += (["value"] if task == "POP" else ["class"] if task == "LUC"
               else [f"p_{j}" for j in range(len(labels[0]))])
    text = io.StringIO()
    text.write(f"# task {task}\n# city c\n# extent 0.0 0.0 1.0 1.0\n" + ("# classes 3\n" if task == "LUC" else ""))
    w = csv.writer(text, lineterminator="\n")
    w.writerow(header)
    for uid, lon, lat, ext, lab in zip(ids, lons, lats, extents, labels):
        w.writerow([uid, repr(lon), repr(lat), *(map(repr, ext) if cells else ()),
                    *(map(repr, lab) if task == "AGE" else [str(lab) if task == "LUC" else repr(lab)])])
    p = tmp_path_factory.getbasetemp() / "columns.csv"
    p.write_text(text.getvalue(), encoding="utf-8")
    try:
        load_task_dataset(p)
        loaded = None
    except ValidationError as e:
        loaded = str(e)
    if message is None:
        assert loaded is None
        return
    i = next(i for i in range(len(ids)) if _columns_error(task, *(c[:i + 1] for c in columns[1:])))
    first_row_line = 6 if task == "LUC" else 5
    assert loaded == f"{p}:{first_row_line + i}: {message}"


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


class TestReadTable:
    def _read(self, tmp_path, data: bytes):
        p = tmp_path / "t.csv"
        p.write_bytes(data)
        meta, lines, rows = read_table(p)
        return meta, list(lines), rows

    def test_comments_blank_lines_and_line_numbers(self, tmp_path):
        meta, lines, rows = self._read(tmp_path, b"\n# task POP\r\n#\n# extent 0 0 1 1\r\nh1,h2\n\na,b\r\n#c,d\n")
        assert meta == {"task": (2, "POP"), "extent": (4, "0 0 1 1")}
        assert lines == [5, 7, 8]
        assert rows == [["h1", "h2"], ["a", "b"], ["#c", "d"]]  # a '#' line after the header is a row

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_lines_end_at_cr_lf_or_crlf_only(self, tmp_path, ending):
        meta, lines, rows = self._read(tmp_path, ending.join([b"# k v", b"h", b"a\x0bb\x0cc\x1c\xc2\x85\xe2\x80\xa8"]))
        assert meta == {"k": (1, "v")}
        assert lines == [2, 3]
        assert rows == [["h"], ["a\x0bb\x0cc\x1c\x85\u2028"]]

    @pytest.mark.parametrize("data", [b'h\n"a\nb"\n', b'h\n"a\nb"'])
    def test_open_quote_closes_with_its_line(self, tmp_path, data):
        assert self._read(tmp_path, data)[1:] == ([1, 2, 3], [["h"], ["a"], ['b"']])
        assert self._read(tmp_path, b'h\n"a\n')[1:] == ([1, 2], [["h"], ["a"]])

    @pytest.mark.parametrize("line", ["# task\u00a0POP", "#\ttask POP", "#  task POP", "#task POP"],
                             ids=["no-break-space", "tab", "double-space", "no-space"])
    def test_key_splits_only_at_single_space(self, tmp_path, line):
        # `# key value` is the writers' form. Other whitespace after the '#' or
        # in the key is an error; a '#' with no space after it is a plain comment.
        p = tmp_path / "task.csv"
        p.write_text(f"{line}\n# city demo\nunit_id,lon,lat,value\nu0,0.1,0.1,0\n", encoding="utf-8")
        if line == "#task POP":
            meta = self._read(tmp_path, f"{line}\n# city demo\nh\n".encode())[0]
            assert "task" not in meta and meta["city"] == (2, "demo")
            message = f"{p}: missing '# task ...' / '# city ...' metadata"
        else:
            with pytest.raises(ValidationError) as e:
                self._read(tmp_path, f"{line}\n# city demo\nh\n".encode())
            assert str(e.value) == f"{tmp_path / 't.csv'}:1: malformed comment"
            message = f"{p}:1: malformed comment"
        with pytest.raises(ValidationError) as e:
            load_task_dataset(p)
        assert str(e.value) == message

    def test_only_comments(self, tmp_path):
        assert self._read(tmp_path, b"# a 1\n\n# a 2\n") == ({"a": (3, "2")}, [], [])

    def test_malformed_line_names_it(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"h\n\n" + b"9" * 200_001 + b"\n")
        with pytest.raises(ValidationError) as e:
            read_table(p)
        assert str(e.value).startswith(f"{p}:3: malformed CSV (field larger than field limit")


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
