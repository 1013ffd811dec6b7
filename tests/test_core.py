"""Tests for the domain model, task-dataset format, and manifest validation."""

import json

import numpy as np
import pytest

import urbanbench.core as core
from urbanbench.cli import main
from urbanbench.core import (
    Rect,
    TaskDataset,
    TaskUnit,
    ValidationError,
    load_manifest,
    load_task_dataset,
    validate_manifest,
    write_task_dataset,
)


def scalar_file(tmp_path, rows, task="POP", city="demo", extent="0.0 0.0 10.0 10.0"):
    lines = [f"# task {task}", f"# city {city}", f"# extent {extent}", "unit_id,lon,lat,value"]
    lines += rows
    p = tmp_path / "task.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestTaskUnit:
    def test_valid_point(self):
        u = TaskUnit("u1", 1.0, 2.0)
        assert u.geometry_kind == "point"

    def test_lon_out_of_range(self):
        with pytest.raises(ValidationError, match="lon"):
            TaskUnit("u1", 190.0, 0.0)

    def test_lat_out_of_range(self):
        with pytest.raises(ValidationError, match="lat"):
            TaskUnit("u1", 0.0, 91.0)

    def test_raster_cell_requires_extent(self):
        with pytest.raises(ValidationError, match="cell_extent"):
            TaskUnit("u1", 0.0, 0.0, "raster_cell")

    def test_raster_cell_extent_must_contain_point(self):
        with pytest.raises(ValidationError, match="contain"):
            TaskUnit("u1", 5.0, 5.0, "raster_cell", Rect(0, 0, 1, 1))


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
        assert [u.unit_id for u in ds.units] == ["b", "a"]

    def test_age_distribution_accepted(self, tmp_path):
        p = tmp_path / "age.csv"
        p.write_text("# task AGE\n# city London\n# extent 0.0 0.0 1.0 1.0\n"
                     "unit_id,lon,lat,p_0,p_1\nu1,0.5,0.5,0.5,0.5\n")
        ds = load_task_dataset(p)
        assert ds.label_kind == "distribution"
        np.testing.assert_allclose(ds.labels, [[0.5, 0.5]])

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
        assert ds.units[0].geometry_kind == "raster_cell"
        assert ds.units[0].cell_extent == Rect(0, 0, 1, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("task,labels,n_classes", [
        ("POP", np.array([0.1, 2.5, -3.75]), None),
        ("LUC", np.array([0, 1, 2]), 3),
        ("AGE", np.array([[0.5, 0.25, 0.25], [0.125, 0.375, 0.5], [1.0, 0.0, 0.0]]), None),
    ])
    def test_write_load_write_identical(self, tmp_path, task, labels, n_classes):
        units = [TaskUnit(f"u{i}", 0.25 * i, 0.5 * i) for i in range(3)]
        ds = TaskDataset("demo", task, units, labels, Rect(0, 0, 2, 2), n_classes=n_classes)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_task_dataset(p1, ds)
        write_task_dataset(p2, load_task_dataset(p1))
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
