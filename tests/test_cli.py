"""End-to-end orchestrator tests: run, resume, determinism, report, verbs."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import urbanbench.cli as cli
from urbanbench.align import write_cell_table_csv, write_erf
from urbanbench.cli import (
    ResultStore,
    RunOutcome,
    RunPlan,
    main,
    read_result_store,
    report,
    run,
)
from urbanbench.core import AGE_CITIES, BENCHMARK_CITIES, CellTableSupport, Rect, ValidationError
from urbanbench.grid import HexGrid, hex_cell_of
from urbanbench.heads import HeadConfig
from urbanbench.split import spatial_split
from urbanbench.synth import SynthConfig, synth_city, write_synth_city


@pytest.fixture
def bench(tmp_path):
    """A small two-model benchmark: raster field embedding plus the PE encoder."""
    from urbanbench.core import write_task_dataset

    cfg = SynthConfig(n=12, extent=Rect(-0.05, -0.05, 0.05, 0.05), length_scale=0.02,
                      label_kind="scalar", embedding_kind="field_value", dim=4, seed=1,
                      city="synthA")
    task, rep = synth_city(cfg)
    write_task_dataset(tmp_path / "task.csv", task)
    write_erf(tmp_path / "field.erf", rep.support)
    manifest = {
        "cities": {"synthA": {"tasks": {"POP": "task.csv"}}},
        "models": {
            "field": {"dim": 4, "support": "raster", "files": {"synthA": "field.erf"}},
            "pe": {"dim": 192, "support": "coordinate_encoder", "encoder": "pe_spherec_approx"},
        },
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


def quick_plan(bench, out="out", **kw):
    defaults = dict(
        manifest_path=bench / "manifest.json", out_dir=bench / out,
        seeds=(42, 24), protocols=("spatial", "random"),
        head=HeadConfig(kind="linear", batch_size=64, max_epochs=30, patience=5),
    )
    defaults.update(kw)
    return RunPlan(**defaults)


def add_model(bench, name, support, dim, file=None, content=None):
    """Add a model to the bench manifest, writing its one embedding file if given."""
    manifest = json.loads((bench / "manifest.json").read_text())
    entry = {"dim": dim, "support": support, "files": {}}
    if file is not None:
        entry["files"]["synthA"] = file
        if content is not None:
            (bench / file).write_bytes(content)
    manifest["models"][name] = entry
    (bench / "manifest.json").write_text(json.dumps(manifest))


RAGGED = b"key_or_lon,lat,v_0,v_1,v_2,v_3\n0.0,0.0,1.0,1.0,1.0,1.0\n0.01,0.01,1.0,1.0,1.0,1.0,5.0\n"


def add_bad_task_city(bench, kind):
    """A second city, sorted after synthA, whose one task file fails to load;
    returns the task and the expected message."""
    manifest = json.loads((bench / "manifest.json").read_text())
    task = "POP"
    if kind == "metadata":  # synthA's file listed under synthB
        rel, message = "task.csv", "task.csv: task file metadata (synthA,POP) != manifest entry (synthB,POP)"
    elif kind == "one-class":
        (bench / "bad.csv").write_text("# task LUC\n# city synthB\n# extent 0 0 1 1\n# classes 1\n"
                                       "unit_id,lon,lat,class\nu0,0.5,0.5,0\n")
        task, rel, message = "LUC", "bad.csv", "bad.csv:4: a class task needs at least 2 classes, got 1"
    else:
        (bench / "bad.csv").write_text("# task POP\n# city synthB\n# extent 0 0 1 1\n"
                                       "unit_id,lon,lat,value\nu0,0.5,0.5,1\nu0,0.6,0.6,2\n")
        rel, message = "bad.csv", "bad.csv:6: duplicate unit_id 'u0'"
    manifest["cities"]["synthB"] = {"tasks": {task: rel}}
    (bench / "manifest.json").write_text(json.dumps(manifest))
    return task, message


class TestRun:
    def test_record_cardinality(self, bench):
        # 1 model x 1 city x 1 task x 5 seeds x 2 protocols x 3 metrics = 30
        plan = quick_plan(bench, models=("field",), seeds=(42, 24, 7, 0, 100))
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 0
        records = read_result_store(bench / "out" / "results.csv")
        assert len(records) == 30

    def test_rerun_is_idempotent(self, bench):
        plan = quick_plan(bench, models=("field",))
        run(plan, log=lambda *a: None)
        before = (bench / "out" / "results.csv").read_bytes()
        out2 = run(plan, log=lambda *a: None)
        assert out2.new_records == 0
        assert (bench / "out" / "results.csv").read_bytes() == before

    def test_two_complete_runs_byte_identical(self, bench):
        plan_a = quick_plan(bench, out="a")
        plan_b = quick_plan(bench, out="b")
        run(plan_a, log=lambda *a: None)
        run(plan_b, log=lambda *a: None)
        assert (bench / "a" / "results.csv").read_bytes() == (bench / "b" / "results.csv").read_bytes()
        assert (bench / "a" / "run_meta.json").read_bytes() == (bench / "b" / "run_meta.json").read_bytes()

    def test_quick_plan_outputs_pinned(self, bench):
        # sha256 of the outputs recorded with the code before RunPlan held a
        # HeadConfig; the plan refactor must leave both files byte-identical
        run(quick_plan(bench), log=lambda *a: None)
        digests = {name: hashlib.sha256((bench / "out" / name).read_bytes()).hexdigest()
                   for name in ("run_meta.json", "results.csv")}
        assert digests == {
            "run_meta.json": "aa88d51d6f0d38aa4cc0e13146e0401b9ef8d0fe6b74dbb739dde1b9518a3bee",
            "results.csv": "25bf4045b33543a0edb1e4db680d52c107f2b8a8a9e1eefd58b49f918d04a66c",
        }

    def test_interrupted_run_resumes_to_same_store(self, bench):
        # partial plan first (one seed), then the full plan in the same dir
        run(quick_plan(bench, out="resume", seeds=(42,)), log=lambda *a: None)
        run(quick_plan(bench, out="resume"), log=lambda *a: None)
        run(quick_plan(bench, out="fresh"), log=lambda *a: None)
        assert (bench / "resume" / "results.csv").read_bytes() == (bench / "fresh" / "results.csv").read_bytes()

    def test_run_stopped_partway_resumes_to_same_store(self, bench, monkeypatch):
        # the third group's evaluate is interrupted; a rerun of the same plan finishes the run
        calls = []
        evaluate = cli.evaluate

        def stop_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate", stop_third)
        with pytest.raises(KeyboardInterrupt):
            run(quick_plan(bench, out="resume"), log=lambda *a: None)
        assert len(read_result_store(bench / "resume" / "results.csv")) == 6
        out = run(quick_plan(bench, out="resume"), log=lambda *a: None)
        assert (out.exit_code, out.new_records, out.skipped_groups) == (0, 18, 2)
        run(quick_plan(bench, out="fresh"), log=lambda *a: None)
        for name in ("results.csv", "run_meta.json"):
            assert (bench / "resume" / name).read_bytes() == (bench / "fresh" / name).read_bytes()
        assert list(bench.rglob("*.tmp")) == []

    def test_split_hashes_model_invariant(self, bench):
        plan = quick_plan(bench)  # both models
        run(plan, log=lambda *a: None)
        meta = json.loads((bench / "out" / "run_meta.json").read_text())
        # one hash per (city, task, protocol, seed); no per-model entries
        assert set(meta["splits"]) == {f"synthA|POP|{p}|{s}"
                                       for p in ("spatial", "random") for s in (42, 24)}
        # recomputing the split from scratch reproduces the recorded hash
        from urbanbench.core import load_task_dataset
        from urbanbench.grid import BlockGrid

        ds = load_task_dataset(bench / "task.csv")
        grid = BlockGrid(ds.extent, 10, 10)
        a = spatial_split(ds, grid, 42)
        assert meta["splits"]["synthA|POP|spatial|42"] == a.assignment_hash

    def test_failures_recorded_and_exit_2(self, bench):
        manifest = json.loads((bench / "manifest.json").read_text())
        # entity model whose file exists but contains no entities near the city
        with open(bench / "far.csv", "w") as f:
            f.write("key_or_lon,lat,v_0,v_1,v_2,v_3\n10.0,10.0,1.0,1.0,1.0,1.0\n")
        manifest["models"]["far"] = {"dim": 4, "support": "entity_set",
                                     "files": {"synthA": "far.csv"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        plan = quick_plan(bench, models=("far",))
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 2
        assert (bench / "out" / "failures.csv").exists()

    def test_empty_entity_set_fails_its_groups_without_a_warning(self, bench):
        # an entity file cut to its header leaves every unit invalid: each group is
        # a failures.csv row, and the `run` process prints no Python warning
        import urbanbench

        add_model(bench, "empty", "entity_set", 4, "empty.csv", b"key_or_lon,lat,v_0,v_1,v_2,v_3\n")
        env = {**os.environ, "PYTHONPATH": str(Path(urbanbench.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-m", "urbanbench.cli", "run", str(bench / "manifest.json"),
                               "--out", str(bench / "out"), "--models", "empty", "--seeds", "42",
                               "--head", "linear", "--max-epochs", "3", "--patience", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Warning" not in proc.stderr
        assert (bench / "out" / "failures.csv").read_text().splitlines() == [
            "run_key,error", "empty|POP|synthA|42|random,empty training set after validity masking",
            "empty|POP|synthA|42|spatial,empty training set after validity masking"]

    def test_run_without_failures_removes_failures_csv(self, bench):
        # a truncated embedding file fails every group; once it is restored, the
        # rerun succeeds and no failures.csv lists the old error
        erf = (bench / "field.erf").read_bytes()
        (bench / "field.erf").write_bytes(erf[:len(erf) // 2])
        plan = quick_plan(bench, models=("field",), seeds=(42,))
        assert run(plan, log=lambda *a: None).exit_code == 2
        assert (bench / "out" / "failures.csv").exists()
        (bench / "field.erf").write_bytes(erf)
        out = run(plan, log=lambda *a: None)
        assert (out.exit_code, out.new_records) == (0, 6)
        assert not (bench / "out" / "failures.csv").exists()

    def test_failed_group_is_one_failure_and_rerun_retries_it_alone(self, bench, monkeypatch):
        # one group's head fails: that group alone is a failures.csv row, the pair's other
        # groups are stored, and a rerun trains that group only, to the store of a clean run
        train_head, trained, fail = cli.train_head, [], True

        def train_head_failing(features, labels, split, cfg, run_seed):
            trained.append((split.seed, split.protocol))
            if trained[-1] == (24, "random") and fail:
                raise ValidationError("head diverged")
            return train_head(features, labels, split, cfg, run_seed)

        monkeypatch.setattr(cli, "train_head", train_head_failing)
        plan = quick_plan(bench, models=("field",))
        out = run(plan, log=lambda *a: None)
        assert (out.exit_code, out.new_records) == (2, 9)
        assert out.failures == [("field|POP|synthA|24|random", "head diverged")]
        assert (bench / "out" / "failures.csv").read_text().splitlines() == [
            "run_key,error", "field|POP|synthA|24|random,head diverged"]
        records = read_result_store(bench / "out" / "results.csv")
        assert {(r.seed, r.protocol) for r in records} == {(42, "spatial"), (24, "spatial"), (42, "random")}
        fail, trained[:] = False, []
        out = run(plan, log=lambda *a: None)
        assert (out.exit_code, out.new_records, out.skipped_groups) == (0, 3, 3)
        assert trained == [(24, "random")]
        assert not (bench / "out" / "failures.csv").exists()
        run(quick_plan(bench, out="clean", models=("field",)), log=lambda *a: None)
        assert (bench / "out" / "results.csv").read_bytes() == (bench / "clean" / "results.csv").read_bytes()

    def test_group_with_no_valid_test_units_is_one_failure(self, bench):
        # a raster with no value on the test blocks of the seed-42 spatial split
        from urbanbench.align import read_erf
        from urbanbench.core import load_task_dataset
        from urbanbench.grid import BlockGrid

        plan = quick_plan(bench, models=("holey",))
        task = load_task_dataset(bench / "task.csv")
        test = spatial_split(task, BlockGrid(task.extent, plan.nx, plan.ny), 42).mask("test")
        raster = read_erf(bench / "field.erf")
        raster.values.reshape(-1, raster.dim)[test] = np.nan  # unit ix + n * iy is raster cell (iy, ix)
        add_model(bench, "holey", "raster", 4, "holey.erf")
        write_erf(bench / "holey.erf", raster)
        out = run(plan, log=lambda *a: None)
        assert (out.exit_code, out.new_records) == (2, 9)
        assert (bench / "out" / "failures.csv").read_text().splitlines() == [
            "run_key,error", "holey|POP|synthA|42|spatial,no valid test units"]
        records = read_result_store(bench / "out" / "results.csv")
        assert {(r.seed, r.protocol) for r in records} == {(24, "spatial"), (42, "random"), (24, "random")}

    def test_ragged_entity_row_fails_pair_and_run_continues(self, bench):
        manifest = json.loads((bench / "manifest.json").read_text())
        with open(bench / "ragged.csv", "w") as f:
            f.write("key_or_lon,lat,v_0,v_1,v_2,v_3\n0.0,0.0,1.0,1.0,1.0,1.0\n"
                    "0.01,0.01,1.0,1.0,1.0,1.0,5.0\n")
        manifest["models"]["ragged"] = {"dim": 4, "support": "entity_set",
                                        "files": {"synthA": "ragged.csv"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        plan = quick_plan(bench, models=("ragged", "field"), seeds=(42,))  # bad pair first
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        assert all(f.startswith("ragged|POP|synthA|42|") and "ragged.csv:3:" in f
                   for f in failures)
        records = read_result_store(bench / "out" / "results.csv")
        assert {r.model_id for r in records} == {"field"}
        assert len(records) == 6

    @pytest.mark.parametrize("file", [None, "missing.erf"], ids=["unlisted", "absent"])
    def test_missing_embedding_file_is_one_gap_line(self, bench, file):
        add_model(bench, "nofile", "raster", 4, file)
        lines = []
        out = run(quick_plan(bench, models=("nofile", "field"), seeds=(42,)), log=lines.append)
        assert out.exit_code == 0 and out.failures == []
        assert not (bench / "out" / "failures.csv").exists()
        assert [ln for ln in lines if ln.startswith("gap:")] == [
            "gap: nofile / synthA / POP: embedding file missing"]
        records = read_result_store(bench / "out" / "results.csv")
        assert {r.model_id for r in records} == {"field"}
        assert len(records) == 6

    def test_non_finite_erf_header_fails_pair_and_run_continues(self, bench):
        manifest = json.loads((bench / "manifest.json").read_text())
        header, _, body = (bench / "field.erf").read_bytes().partition(b"\n")
        fields = header.split()
        fields[1] = b"nan"  # x0
        (bench / "nan.erf").write_bytes(b" ".join(fields) + b"\n" + body)
        manifest["models"]["nan"] = {"dim": 4, "support": "raster", "files": {"synthA": "nan.erf"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        plan = quick_plan(bench, models=("nan", "field"), seeds=(42,))  # bad pair first
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        assert all(f.startswith("nan|POP|synthA|42|") and "nan.erf: " in f for f in failures)
        records = read_result_store(bench / "out" / "results.csv")
        assert {r.model_id for r in records} == {"field"}
        assert len(records) == 6

    @pytest.mark.parametrize("file,support,content,line", [
        ("infent.csv", "entity_set", b"key_or_lon,lat,v_0,v_1,v_2,v_3\n0.0,0.0,1,1,1,1\n"
                                     b"0.01,0.01,1,inf,1,1\n", 3),
        ("nantab.csv", "cell_table", b"# hexgrid 0.0 0.0 461.0\nkey_or_lon,lat,v_0,v_1,v_2,v_3\n"
                                     b"0:0,,1,1,1,1\n1:0,,1,1,nan,1\n", 4),
    ], ids=["entity-inf", "cell-table-nan"])
    def test_non_finite_component_names_file_line(self, bench, capsys, file, support, content, line):
        name = file.split(".")[0]
        add_model(bench, name, support, 4, file, content)
        message = f"{file}:{line}: non-finite value"
        assert main(["validate", str(bench / "manifest.json")]) == 1
        out = capsys.readouterr().out
        assert f"error: model {name}, city synthA: " in out and message in out
        assert f"ok: {name}" not in out and "ok: field / synthA / POP\n" in out
        out = run(quick_plan(bench, models=(name, "field"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        assert all(f.startswith(f"{name}|POP|synthA|42|") and message in f for f in failures)
        assert {r.model_id for r in read_result_store(bench / "out" / "results.csv")} == {"field"}

    def test_component_outside_float32_range_names_file_line(self, bench, capsys):
        # such a component could overflow a head's loss; the reader stops it first
        add_model(bench, "bigent", "entity_set", 4, "bigent.csv",
                  b"key_or_lon,lat,v_0,v_1,v_2,v_3\n0.0,0.0,1,1,1,1\n0.01,0.01,1e39,1,1,1\n")
        message = f"{bench / 'bigent.csv'}:3: value outside the float32 range"
        assert main(["validate", str(bench / "manifest.json")]) == 1
        assert f"error: model bigent, city synthA: {message}\n" in capsys.readouterr().out
        out = run(quick_plan(bench, models=("bigent", "field"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        assert all(f.startswith("bigent|POP|synthA|42|") and f.endswith(message) for f in failures)
        assert {r.model_id for r in read_result_store(bench / "out" / "results.csv")} == {"field"}

    @pytest.mark.parametrize("text, message", [
        ("# extent 0 0 1 1\nunit_id,lon,lat,value\nu0,0.5,0.5,1\nu1,0.6,0.6,2\n",
         "need at least 3 occupied blocks to form three partitions, got 2"),
        ("# extent 0.5 0 0.5 1\nunit_id,lon,lat,value\nu0,0.5,0.5,1\nu1,0.5,0.6,2\n",
         "block grid extent must have positive area"),
    ], ids=["two-units", "zero-area"])
    def test_unsplittable_task_fails_before_writing(self, bench, capsys, text, message):
        # a second city, sorted after the good one, whose task cannot be split
        (bench / "small.csv").write_text("# task POP\n# city synthB\n" + text)
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["cities"]["synthB"] = {"tasks": {"POP": "small.csv"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "out"),
                     "--seeds", "42"]) == 1
        assert capsys.readouterr().err == f"error: city synthB, task POP: {message}\n"
        assert not (bench / "out").exists()

    @pytest.mark.parametrize("lon,lat", [("inf", "0.01"), ("0.01", "-inf")])
    def test_infinite_entity_fails_pair_and_run_continues(self, bench, lon, lat):
        manifest = json.loads((bench / "manifest.json").read_text())
        with open(bench / "inf.csv", "w") as f:
            f.write("key_or_lon,lat,v_0,v_1,v_2,v_3\n0.0,0.0,1.0,1.0,1.0,1.0\n"
                    f"{lon},{lat},1.0,1.0,1.0,1.0\n")
        manifest["models"]["inf"] = {"dim": 4, "support": "entity_set",
                                     "files": {"synthA": "inf.csv"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        plan = quick_plan(bench, models=("inf", "field"), seeds=(42,))  # bad pair first
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        # the file's coordinate rule names its line; no point reaches alignment
        assert all(f.startswith("inf|POP|synthA|42|") and f.endswith(f"{bench / 'inf.csv'}:3: non-finite coordinate")
                   for f in failures)
        records = read_result_store(bench / "out" / "results.csv")
        assert {r.model_id for r in records} == {"field"}
        assert len(records) == 6

    @pytest.mark.parametrize("file,support,content", [
        ("badgrid.csv", "cell_table", b"# hexgrid abc 0 461\nkey_or_lon,lat,v_0,v_1\n0:0,,1,2\n"),
        ("ascii.erf", "raster", b"erf1 \xff 0 1 1 1 1 2\n" + b"\x00" * 8),
        ("intdim.erf", "raster", b"erf1 0 0 1 1 1 1 abc\n" + b"\x00" * 8),
        ("utf8.csv", "entity_set", b"key_or_lon,lat,v_0,v_1\n0.0,0.0,1.0,\xff\n"),
    ], ids=["hexgrid-comment", "erf-non-ascii", "erf-bad-dim", "entity-non-utf8"])
    def test_unreadable_header_fails_pair_and_run_continues(self, bench, file, support, content):
        (bench / file).write_bytes(content)
        name = file.split(".")[0]
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["models"][name] = {"dim": 2, "support": support, "files": {"synthA": file}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        plan = quick_plan(bench, models=(name, "field"), seeds=(42,))  # bad pair first
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        assert all(f.startswith(f"{name}|POP|synthA|42|") and f"{file}:" in f for f in failures)
        records = read_result_store(bench / "out" / "results.csv")
        assert {r.model_id for r in records} == {"field"}

    def test_cell_table_grid_sources(self, bench, capsys):
        # A cell table's grid comes from its file alone. A table keyed on a grid
        # anchored ~80 km from the task aligns through the file comment; the
        # same file without that comment is an error that names it, in
        # `validate` and in `run`, where the run goes on.
        from urbanbench.core import load_task_dataset

        task = load_task_dataset(bench / "task.csv")
        far = HexGrid(0.5, 0.5)
        cells: dict = {}
        for lon, lat, y in zip(task.lons.tolist(), task.lats.tolist(), task.labels):
            cells.setdefault(hex_cell_of(lon, lat, far), []).append(y)
        table = {c: np.full(2, np.mean(v)) for c, v in cells.items()}
        write_cell_table_csv(bench / "ct_comment.csv", CellTableSupport(grid=far, table=table))
        comment, _, rest = (bench / "ct_comment.csv").read_bytes().partition(b"\n")
        assert comment.startswith(b"# hexgrid ")
        add_model(bench, "ct_comment", "cell_table", 2, "ct_comment.csv")
        add_model(bench, "ct_no_grid", "cell_table", 2, "ct_no_grid.csv", rest)
        message = f"{bench / 'ct_no_grid.csv'}: missing '# hexgrid lon0 lat0 edge_len_m' comment"

        assert main(["validate", str(bench / "manifest.json")]) == 1
        out = capsys.readouterr().out
        assert f"error: model ct_no_grid, city synthA: {message}\n" in out
        assert "ok: ct_comment" in out and "ok: ct_no_grid" not in out
        out = run(quick_plan(bench, models=("ct_comment", "ct_no_grid"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 2
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 2  # one per protocol
        assert all(f.startswith("ct_no_grid|POP|synthA|42|") and f.endswith(message) for f in failures)
        records = read_result_store(bench / "out" / "results.csv")
        assert {r.model_id for r in records} == {"ct_comment"} and len(records) == 6
        assert all(r.n_test > 0 for r in records)

    def _two_task_city(self, bench, monkeypatch, entities):
        """POP (the bench task) and LUC on one city, their extents (so their
        hex grids) apart, a raster, an entity and a cell-table model;
        returns the per-reader call counts of a run."""
        from urbanbench.align import write_entity_csv
        from urbanbench.core import write_task_dataset

        cfg = SynthConfig(n=12, extent=Rect(-0.04, -0.05, 0.06, 0.05), length_scale=0.02,
                          label_kind="class", embedding_kind="sparse_entities", dim=4,
                          seed=2, city="synthA", density=0.5)
        task, rep = synth_city(cfg)
        write_task_dataset(bench / "luc.csv", task)
        if entities is None:
            write_entity_csv(bench / "ents.csv", rep.support)
        else:
            (bench / "ents.csv").write_bytes(entities)
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["cities"]["synthA"]["tasks"]["LUC"] = "luc.csv"
        manifest["models"]["ents"] = {"dim": 4, "support": "entity_set",
                                      "files": {"synthA": "ents.csv"}}
        # one grid for the city, its keys reaching past both tasks' extents
        rng = np.random.default_rng(0)
        write_cell_table_csv(bench / "table.csv", CellTableSupport(grid=HexGrid(0.01, 0.0), table={
            (q, r): rng.standard_normal(2) for q in range(-20, 21) for r in range(-20, 21)}))
        manifest["models"]["table"] = {"dim": 2, "support": "cell_table",
                                       "files": {"synthA": "table.csv"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        calls = {"read_erf": 0, "read_entity_csv": 0, "read_cell_table_csv": 0}
        for name in calls:
            def counted(*args, _name=name, _read=getattr(cli, name)):
                calls[_name] += 1
                return _read(*args)
            monkeypatch.setattr(cli, name, counted)
        return calls

    def test_one_embedding_read_per_model_and_city(self, bench, monkeypatch):
        calls = self._two_task_city(bench, monkeypatch, entities=None)
        out = run(quick_plan(bench, models=("ents", "field", "table"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 0
        assert calls == {"read_erf": 1, "read_entity_csv": 1, "read_cell_table_csv": 1}
        records = read_result_store(bench / "out" / "results.csv")
        assert {(r.model_id, r.task) for r in records} == {
            (m, t) for m in ("ents", "field", "table") for t in ("LUC", "POP")}

    def test_one_read_error_fails_every_pending_group(self, bench, monkeypatch):
        calls = self._two_task_city(bench, monkeypatch, entities=RAGGED)
        out = run(quick_plan(bench, models=("ents", "field", "table"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 2
        assert calls == {"read_erf": 1, "read_entity_csv": 1, "read_cell_table_csv": 1}
        failures = (bench / "out" / "failures.csv").read_text().splitlines()[1:]
        assert sorted(f.split(",")[0] for f in failures) == [
            f"ents|{t}|synthA|42|{p}" for t in ("LUC", "POP") for p in ("random", "spatial")]
        assert all("ents.csv:3:" in f for f in failures)
        assert {r.model_id for r in read_result_store(bench / "out" / "results.csv")} == {"field", "table"}

    def test_empty_cell_table_fails_pair_and_run_continues(self, bench):
        add_model(bench, "empty", "cell_table", 4, "empty.csv",
                  b"# hexgrid 0.0 0.0 461.0\n#nothing else\n")
        out = run(quick_plan(bench, models=("empty", "field"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 2
        assert [f for _, f in out.failures] == [f"{bench / 'empty.csv'}: empty cell table"] * 2
        assert {r.model_id for r in read_result_store(bench / "out" / "results.csv")} == {"field"}

    def test_file_dim_mismatch_fails_pair_and_run_continues(self, bench):
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["models"]["wide"] = {"dim": 5, "support": "raster", "files": {"synthA": "field.erf"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        out = run(quick_plan(bench, models=("wide", "field"), seeds=(42,)), log=lambda *a: None)
        assert out.exit_code == 2
        assert [f for _, f in out.failures] == [f"{bench / 'field.erf'}: file dim 4 != declared 5"] * 2
        assert {r.model_id for r in read_result_store(bench / "out" / "results.csv")} == {"field"}

    def test_manifest_error_exits_1(self, bench, capsys):
        path = bench / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["models"]["bad"] = {"dim": 4, "support": "hologram"}
        path.write_text(json.dumps(manifest))
        message = f"{path}: model bad: unknown support kind 'hologram'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run(quick_plan(bench), log=lambda *a: None)
        assert main(["run", str(path), "--out", str(bench / "out")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (bench / "out").exists()


def snapshot(directory):
    """Every file under `directory`, as bytes by relative path."""
    return {str(f.relative_to(directory)): f.read_bytes() for f in sorted(directory.rglob("*")) if f.is_file()}


class TestRunDirectoryPlan:
    """A run directory is bound to the plan in its run_meta.json."""

    QUICK = ["--seeds", "42", "--head", "linear", "--max-epochs", "3", "--patience", "2"]

    @pytest.mark.parametrize("flags, recorded", [
        (["--grid", "4x4"], "grid [10, 10] != this run's [4, 4]"),
        (["--max-epochs", "4"], "max_epochs 3 != this run's 4"),
        (["--head", "mlp"], 'head "linear" != this run\'s "mlp"'),
    ], ids=["grid", "max-epochs", "head"])
    def test_other_plan_exits_1_and_changes_nothing(self, bench, capsys, flags, recorded):
        run_args = ["run", str(bench / "manifest.json"), "--out", str(bench / "out"), *self.QUICK]
        assert main([*run_args, "--grid", "10x10"]) == 0
        before = snapshot(bench / "out")
        capsys.readouterr()
        assert main([*run_args, *flags]) == 1
        assert capsys.readouterr().err == f"error: {bench / 'out' / 'run_meta.json'}: recorded {recorded}\n"
        assert snapshot(bench / "out") == before

    @pytest.mark.parametrize("first, then, fresh", [
        (dict(seeds=(42,)), dict(seeds=(24,)), dict(seeds=(42, 24))),
        (dict(models=("field",)), dict(models=("pe",)), dict()),
        (dict(protocols=("spatial",)), dict(protocols=("random",), seeds=(24, 42)), dict()),
    ], ids=["seed", "model", "protocol"])
    def test_added_items_merge_run_meta(self, bench, first, then, fresh):
        run(quick_plan(bench, **first), log=lambda *a: None)
        assert run(quick_plan(bench, **then), log=lambda *a: None).exit_code == 0
        run(quick_plan(bench, out="fresh", **fresh), log=lambda *a: None)
        # the recorded order first: a fresh run of the union writes the same file
        assert (bench / "out" / "run_meta.json").read_bytes() == (bench / "fresh" / "run_meta.json").read_bytes()

    def test_merged_lists_keep_recorded_order(self, bench):
        run(quick_plan(bench, seeds=(24,)), log=lambda *a: None)
        run(quick_plan(bench, seeds=(42, 24)), log=lambda *a: None)
        meta = json.loads((bench / "out" / "run_meta.json").read_text())
        assert meta["plan"]["seeds"] == [24, 42]
        assert len(meta["splits"]) == 4

    def test_failed_run_meta_write_leaves_it_intact(self, bench, capsys):
        # A child run of a plan with one more seed, whose file size limit stops it
        # partway through the larger run_meta.json: Python ignores SIGXFSZ, so the
        # write raises EFBIG. The child exits 1, the recorded file stays whole, and
        # the next run of that plan succeeds. A small city keeps each split file
        # below the limit, so run_meta.json is the first write that passes it.
        import urbanbench
        from urbanbench.core import write_task_dataset

        cfg = SynthConfig(n=8, extent=Rect(-0.05, -0.05, 0.05, 0.05), length_scale=0.02,
                          label_kind="scalar", embedding_kind="field_value", dim=4, seed=1, city="synthA")
        task, rep = synth_city(cfg)
        write_task_dataset(bench / "task.csv", task)
        write_erf(bench / "field.erf", rep.support)
        run_args = ["run", str(bench / "manifest.json"), "--out", str(bench / "out"), *self.QUICK]
        assert main(run_args) == 0
        meta = (bench / "out" / "run_meta.json").read_bytes()
        limit = len(meta) + 8
        assert max(f.stat().st_size for f in (bench / "out" / "splits").iterdir()) < limit
        more = [*run_args, "--seeds", "42,24"]
        script = ("import resource, sys\n"
                  f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                  "from urbanbench.cli import main\n"
                  f"sys.exit(main({more!r}))\n")
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 1 and "File too large" in proc.stderr, proc.stderr
        kept, left = (bench / "out" / "run_meta.json").read_bytes(), list((bench / "out").rglob("*.tmp"))
        # a torn run_meta.json would refuse this run as "invalid JSON"
        assert (main(more), capsys.readouterr().err) == (0, "")
        assert kept == meta and left == []

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON"),
        ("[]", "run meta must be a JSON object, got list"),
        ('{"plan": []}', "not the run meta of a run"),
    ], ids=["invalid", "list", "no-plan"])
    def test_corrupt_run_meta_names_it(self, bench, capsys, text, message):
        (bench / "out").mkdir()
        (bench / "out" / "run_meta.json").write_text(text)
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "out"), *self.QUICK]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bench / 'out' / 'run_meta.json'}: {message}") and err.count("\n") == 1
        assert snapshot(bench / "out") == {"run_meta.json": text.encode()}


class TestResultStore:
    def test_nan_round_trip(self, tmp_path):
        from urbanbench.core import ResultRecord

        store = ResultStore(tmp_path / "results.csv")
        store.add([ResultRecord("m", "POP", "c", 42, "spatial", "r2", float("nan"), 5),
                   ResultRecord("m", "POP", "c", 42, "spatial", "rmse", 0.5, 5),
                   ResultRecord("m", "POP", "c", 42, "spatial", "mae", 0.25, 5)])
        store.flush()
        back = read_result_store(tmp_path / "results.csv")
        assert [r.metric for r in back] == ["r2", "mae", "rmse"]  # canonical metric order
        assert np.isnan(back[0].value)
        assert back[1].value == 0.25

    def test_constant_labels_yield_degenerate_r2(self, tmp_path):
        # zero-variance targets: scaler disabled, R2 flagged NaN, run continues
        from reference import TaskUnit, dataset
        from urbanbench.core import write_task_dataset

        units = [TaskUnit(f"u{iy}_{ix}", 0.1 * ix + 0.05, 0.1 * iy + 0.05)
                 for iy in range(10) for ix in range(10)]
        ds = dataset("flat", "POP", units, np.full(100, 7.0), Rect(0, 0, 1, 1))
        write_task_dataset(tmp_path / "task.csv", ds)
        manifest = {"cities": {"flat": {"tasks": {"POP": "task.csv"}}},
                    "models": {"pe": {"dim": 192, "support": "coordinate_encoder",
                                      "encoder": "pe_spherec_approx"}}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        plan = RunPlan(manifest_path=tmp_path / "manifest.json", out_dir=tmp_path / "out",
                       seeds=(42,), protocols=("random",), nx=5, ny=5,
                       head=HeadConfig(kind="linear", batch_size=32, max_epochs=12, patience=4))
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 0
        records = {r.metric: r for r in read_result_store(tmp_path / "out" / "results.csv")}
        assert np.isnan(records["r2"].value)
        assert np.isfinite(records["mae"].value)

    def _store_with_extra_line(self, bench, line):
        run(quick_plan(bench, models=("field",), seeds=(42,)), log=lambda *a: None)
        path = bench / "out" / "results.csv"
        n_lines = len(path.read_text().splitlines())
        with path.open("a") as f:
            f.write(line + "\n")
        return path, n_lines + 1

    def test_short_row_names_file_line(self, bench):
        path, ln = self._store_with_extra_line(bench, "a,b")
        with pytest.raises(ValidationError, match=rf"results\.csv:{ln}: expected 8 fields, got 2"):
            read_result_store(path)
        assert main(["report", str(path.parent)]) == 1

    def test_non_numeric_row_names_file_line(self, bench):
        path, ln = self._store_with_extra_line(bench, "field,POP,synthA,42,spatial,r2,high,5")
        with pytest.raises(ValidationError,
                           match=rf"results\.csv:{ln}: column 'value': could not convert string to float: 'high'$"):
            read_result_store(path)
        assert main(["report", str(path.parent)]) == 1

    @pytest.mark.parametrize("line, message", [
        ("field,XYZ,synthA,42,spatial,r2,0.5,3", "unknown task 'XYZ'"),
        ("field,POP,synthA,42,sideways,r2,0.5,3", "unknown protocol 'sideways'"),
        ("field,POP,synthA,42,spatial,kl,0.5,3", "metric 'kl' is not a POP metric"),
        ("field,POP,synthA,7,spatial,r2,0.5,0", "n_test 0 < 1"),
        ("field,POP,synthA,42,random,mae,0.5,3", "repeated (model, task, city, seed, protocol, metric) key"),
    ], ids=["task", "protocol", "metric", "n_test", "repeated"])
    def test_bad_record_stops_report_and_resume(self, bench, capsys, line, message):
        path, ln = self._store_with_extra_line(bench, line)
        before = snapshot(bench / "out")
        capsys.readouterr()
        assert main(["report", str(path.parent)]) == 1
        assert capsys.readouterr().err == f"error: {path}:{ln}: {message}\n"
        with pytest.raises(ValidationError, match=rf"results\.csv:{ln}: "):
            run(quick_plan(bench, models=("field",), seeds=(42,)), log=lambda *a: None)
        assert snapshot(bench / "out") == before


    def test_partial_group_stops_report_and_rerun(self, bench, capsys):
        # a store without a group's mae row would rerun the group and append its
        # r2 and rmse rows again: report and run name the group's first row instead
        args = ["run", str(bench / "manifest.json"), "--out", str(bench / "out"), "--models", "field",
                "--seeds", "42", "--head", "linear", "--max-epochs", "3", "--patience", "2"]
        assert main(args) == 0
        path = bench / "out" / "results.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[1].startswith("field,POP,synthA,42,random,r2,")
        path.write_text("".join(line for line in lines if ",mae," not in line))
        before = snapshot(bench / "out")
        capsys.readouterr()
        assert main(["report", str(path.parent)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: incomplete group: no mae row\n"
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: incomplete group: no mae row")
        assert snapshot(bench / "out") == before


class TestReportDirections:
    def test_kl_ranked_ascending(self, tmp_path):
        # hand-built store: lower KL must earn rank 1
        rows = ["model,task,city,seed,protocol,metric,value,n_test"]
        for model, kl in (("good", 0.02), ("bad", 0.04)):
            for seed in (42, 24):
                rows += [f"{model},AGE,London,{seed},spatial,{metric},{kl},10" for metric in ("kl", "chebyshev", "l1")]
        (tmp_path / "results.csv").write_text("\n".join(rows) + "\n")
        paths = report(tmp_path, log=lambda *a: None)
        ranks = {r.split(",")[0]: float(r.split(",")[2])
                 for r in paths["ranks"].read_text().splitlines()[1:]}
        assert ranks["good"] == 1.0
        assert ranks["bad"] == 2.0
        overall = [line.split(",")[0] for line in
                   paths["overall"].read_text().splitlines()[1:]]
        assert overall == ["good", "bad"]


class TestAgeRestriction:
    def test_age_runs_only_in_four_cities(self, tmp_path):
        from urbanbench.core import write_task_dataset

        cities = {}
        for city in BENCHMARK_CITIES:
            cfg = SynthConfig(n=8, extent=Rect(-0.02, -0.02, 0.02, 0.02), length_scale=0.01,
                              label_kind="distribution", n_classes=3,
                              embedding_kind="field_value", dim=2, seed=2, city=city)
            task, rep = synth_city(cfg)
            write_task_dataset(tmp_path / f"{city}.csv", task)
            cities[city] = {"tasks": {"AGE": f"{city}.csv"}}
        manifest = {"cities": cities,
                    "models": {"pe": {"dim": 192, "support": "coordinate_encoder",
                                      "encoder": "pe_spherec_approx"}}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        plan = RunPlan(manifest_path=tmp_path / "manifest.json", out_dir=tmp_path / "out",
                       seeds=(42,), protocols=("spatial",), nx=4, ny=4,
                       head=HeadConfig(kind="linear", batch_size=32, max_epochs=12, patience=4))
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 0
        records = read_result_store(tmp_path / "out" / "results.csv")
        assert {r.city for r in records} == set(AGE_CITIES)
        assert len(records) == 4 * 3  # kl, chebyshev, l1 per city


    def test_validate_lists_no_restricted_pair(self, tmp_path, capsys):
        # validate agrees with run, which skips the pair: a warning, no ok: line
        cfg = SynthConfig(n=8, extent=Rect(-0.02, -0.02, 0.02, 0.02), length_scale=0.01,
                          label_kind="distribution", n_classes=3,
                          embedding_kind="field_plus_noise", dim=2, seed=2, city="Mumbai")
        manifest = write_synth_city(cfg, tmp_path / "city")["manifest"]
        assert main(["validate", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert out == ("warning: AGE restricted: Mumbai is outside the four AGE cities\n"
                       "0 resolvable, 0 gaps, 1 warnings, 0 errors\n")
        logs = []
        outcome = run(RunPlan(manifest_path=manifest, out_dir=tmp_path / "out", seeds=(42,)),
                      log=logs.append)
        assert outcome.new_records == 0
        assert [line for line in logs if "AGE" in line] == [
            "warning: AGE restricted: Mumbai is outside the four AGE cities"]


class TestReport:
    def test_report_files_and_leaderboard(self, bench):
        run(quick_plan(bench), log=lambda *a: None)
        paths = report(bench / "out", log=lambda *a: None)
        for key in ("task_summary", "ranks", "overall", "split_delta", "factor_corr", "leaderboard"):
            assert paths[key].exists()
        board = paths["leaderboard"].read_text().splitlines()
        assert board[0].split()[:2] == ["model", "overall"]

        # leaderboard rows ordered by ascending overall rank
        overall = dict(line.split(",") for line in
                       paths["overall"].read_text().splitlines()[1:])
        ordered = [line.split()[0] for line in board[2:]]
        assert ordered == sorted(overall, key=lambda m: (float(overall[m]), m))

        # leaderboard Avg cells equal task_summary values exactly
        summary_rows = [r.split(",") for r in paths["task_summary"].read_text().splitlines()[1:]]
        avg = {(r[0], r[1]): float(r[2]) for r in summary_rows}
        for line in board[2:]:
            parts = line.split()
            assert float(parts[2]) == pytest.approx(avg[(parts[0], "POP")], abs=5e-5)

    def test_field_model_beats_pe(self, bench):
        # the fully informative raster embedding must outrank the PE baseline
        run(quick_plan(bench), log=lambda *a: None)
        paths = report(bench / "out", log=lambda *a: None)
        overall = dict(line.split(",") for line in
                       paths["overall"].read_text().splitlines()[1:])
        assert float(overall["field"]) < float(overall["pe"])

    def test_split_delta_file(self, bench):
        run(quick_plan(bench), log=lambda *a: None)
        paths = report(bench / "out", log=lambda *a: None)
        rows = paths["split_delta"].read_text().splitlines()
        assert rows[0] == "model,task,city,delta"
        assert len(rows) == 3  # two models x one (task, city)

    def test_factor_corr_with_factors_file(self, tmp_path):
        from urbanbench.core import write_task_dataset

        cities = {}
        for i, city in enumerate(("cityA", "cityB", "cityC", "cityD")):
            cfg = SynthConfig(n=8, extent=Rect(-0.02, -0.02, 0.02, 0.02), length_scale=0.01,
                              label_kind="scalar", embedding_kind="field_value",
                              dim=2, seed=i, city=city)
            task, rep = synth_city(cfg)
            write_task_dataset(tmp_path / f"{city}.csv", task)
            write_erf(tmp_path / f"{city}.erf", rep.support)
            cities[city] = {"tasks": {"POP": f"{city}.csv"}}
        manifest = {"cities": cities,
                    "models": {"field": {"dim": 2, "support": "raster",
                                         "files": {c: f"{c}.erf" for c in cities}}}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        plan = RunPlan(manifest_path=tmp_path / "manifest.json", out_dir=tmp_path / "out",
                       seeds=(42,), protocols=("spatial",), nx=4, ny=4,
                       head=HeadConfig(kind="linear", batch_size=32, max_epochs=12, patience=4))
        run(plan, log=lambda *a: None)
        (tmp_path / "factors.csv").write_text(
            "city,area\ncityA,10\ncityB,20\ncityC,30\ncityD,40\n")
        paths = report(tmp_path / "out", factors_path=tmp_path / "factors.csv",
                       log=lambda *a: None)
        rows = paths["factor_corr"].read_text().splitlines()
        assert rows[0] == "task,factor,rho,p_value,n,approximate"
        assert len(rows) == 2
        assert rows[1].startswith("POP,area,")

    def test_report_after_random_only_run(self, bench):
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "rnd"),
                     "--seeds", "42", "--protocols", "random", "--head", "linear",
                     "--batch-size", "64", "--max-epochs", "20"]) == 0
        assert main(["report", str(bench / "rnd")]) == 0
        out = bench / "rnd"
        for name in ("task_summary.csv", "split_delta.csv", "factor_corr.csv"):
            assert (out / name).exists()
        # ranks come from the spatial protocol only: headers, no rows
        assert (out / "ranks.csv").read_text() == "model,task,mean_city_rank\n"
        assert (out / "overall.csv").read_text() == "model,overall_rank\n"
        board = (out / "leaderboard.txt").read_text()
        assert "no spatial-protocol results to rank" in board

    def test_non_numeric_factor_names_file_line(self, bench, capsys):
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "out"),
                     "--seeds", "42", "--protocols", "spatial", "--head", "linear",
                     "--models", "field", "--batch-size", "64", "--max-epochs", "20"]) == 0
        (bench / "factors.csv").write_text("city,area\nc,abc\n")
        capsys.readouterr()
        assert main(["report", str(bench / "out"), "--factors", str(bench / "factors.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bench / 'factors.csv'}:2: column 'area': could not convert string to float: 'abc'\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("city,a,b\nLondon,1\nParis,1,2,3\n", "2: expected 3 fields, got 2"),
        ("city,a,b\nLondon,1,2\nParis,1,2,3\n", "3: expected 3 fields, got 4"),
        ("city,a,b\nLondon,1,2\n,7,8\n", "3: empty city"),
        ("city,a,b\nParis,1,2\nLondon,3,4\nParis,5,6\n", "4: repeated city 'Paris'"),
        ("city,a,b\nParis,1,x\nLondon,,y\n", "2: column 'b': could not convert string to float: 'x'"),
        ("city,a,b\nParis,1,2\nLondon,nan,x\n", "3: column 'b': could not convert string to float: 'x'"),
        ("city,a\nParis,1\nLondon,-inf\n", "3: factor 'a' value '-inf' is not a finite number"),
        ("city,a,a\nc1,1,5\n", "1: repeated factor 'a'"),
        ("#a comment\n\ncity,,b\nc1,1,5\n", "3: empty factor name"),
    ], ids=["short", "long", "empty-city", "repeated-city", "value", "nan", "inf", "repeated-factor",
            "empty-factor"])
    def test_bad_factor_row_names_file_line(self, tmp_path, text, message):
        p = tmp_path / "factors.csv"
        p.write_text(text)
        for read in (cli._read_factors, reference.read_factors):
            with pytest.raises(ValidationError) as e:
                read(p)
            assert str(e.value) == f"{p}:{message}"

    def test_factor_rows_load(self, tmp_path):
        p = tmp_path / "factors.csv"
        p.write_text("city,a,b\nLondon,1,\n\nParis,5,6\n")
        assert cli._read_factors(p) == {"a": {"London": 1.0, "Paris": 5.0}, "b": {"Paris": 6.0}}

    def test_non_finite_factor_report_exits_1(self, bench, capsys):
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "out"),
                     "--seeds", "42", "--protocols", "spatial", "--head", "linear",
                     "--models", "field", "--batch-size", "64", "--max-epochs", "20"]) == 0
        (bench / "f.csv").write_text("city,area\ndemoville,1\nx,nan\n")
        capsys.readouterr()
        assert main(["report", str(bench / "out"), "--factors", str(bench / "f.csv")]) == 1
        assert "f.csv:3: factor 'area' value 'nan' is not a finite number" in capsys.readouterr().err

    def test_empty_store_errors(self, tmp_path):
        (tmp_path / "results.csv").write_text("model,task,city,seed,protocol,metric,value,n_test\n")
        with pytest.raises(ValidationError, match="empty"):
            report(tmp_path, log=lambda *a: None)


def _unit(*key) -> float:
    """A fixed value in [0, 1) for a key: six decimals of its sha256."""
    return round(int.from_bytes(hashlib.sha256("|".join(map(str, key)).encode()).digest()[:4], "big")
                 / 2**32, 6)


def _golden_store(out: Path) -> dict:
    """A hand-written result store and factor table for `TestReportGolden`.
    Twelve cities, two tasks (POP ranks by r2, higher better; AGE by kl,
    lower better), three models in both tasks and one in POP only, seeds 42,
    24 and 7 under both protocols, and one more POP model in c00 only. Model b's spatial POP cell in c03 has only
    NaN seeds, some other seeds are NaN, a and b tie in c05, c's POP cell in
    c10 is spatial only and its AGE cell in c11 random only. Returns
    {task: {city: [spatial city scores]}}, the performance factor_corr.csv
    correlates, computed here on its own."""
    metrics = {"POP": ("r2", "mae", "rmse"), "AGE": ("kl", "chebyshev", "l1")}
    cities = [f"c{i:02d}" for i in range(12)]
    rows, perf = ["model,task,city,seed,protocol,metric,value,n_test"], {}
    for task, names in metrics.items():
        for model in ("a", "b", "c") + (("d", "e") if task == "POP" else ()):
            for city in cities[:1] if model == "e" else cities:
                for protocol in ("spatial", "random"):
                    if (model, task, city, protocol) in {("c", "POP", "c10", "random"),
                                                         ("c", "AGE", "c11", "spatial")}:
                        continue
                    seeds = []
                    for seed in (42, 24, 7):
                        value = _unit(model, task, city, protocol, seed)
                        if task == "POP" and model in "ab" and city == "c05":
                            value = _unit("tie", protocol, seed)
                        if ((model, task, city, protocol) == ("b", "POP", "c03", "spatial")
                                or (seed == 7 and city in ("c01", "c07") and model != "d")):
                            value = math.nan
                        for k, metric in enumerate(names):
                            rows.append(f"{model},{task},{city},{seed},{protocol},{metric},"
                                        f"{value + k if k else value!r},{20 + seed}")
                        seeds.append(value)
                    finite = [v for v in seeds if math.isfinite(v)]
                    if protocol == "spatial" and finite:
                        perf.setdefault(task, {}).setdefault(city, []).append(
                            math.fsum(finite) / len(finite))
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    # area: every city (n = 12, approximate 0); const: one value (no row);
    # gdp: four cities missing (n = 8, approximate 1); two: too few cities (no row)
    factors = ["city,area,const,gdp,two"]
    for i, city in enumerate(cities):
        gdp = "" if i % 3 == 1 else repr(_unit("gdp", city) * 100)
        two = repr(float(i)) if i < 2 else ""
        factors.append(f"{city},{_unit('area', city)!r},5,{gdp},{two}")
    factors.append("elsewhere,1,5,2,3")
    (out / "factors.csv").write_text("\n".join(factors) + "\n")
    return perf


class TestReportGolden:
    # sha256 of the bytes of each report file of `_golden_store`; factor_corr.csv
    # without its p_value column, which is checked against scipy below
    PINNED = {
        "task_summary.csv": "98e2aba6952a8be0ca5e3c1958e53778d183baf66c8cc8d3f91380f1d99a4131",
        "ranks.csv": "230696e4cf0e59dd3eedf820f82b62c30c1c6c1e8603d726c7ebf412147a3e50",
        "overall.csv": "76abd2672a962477421717d4e0809eeebba7f2c24bd7e6386167f6a1babea94c",
        "split_delta.csv": "1e67e76fc45c1319511ea6e77cac7b98bdc4f3dc4655ea9f2fa59f70478efe77",
        "leaderboard.txt": "946062584ef14e0d12936520919036bc092f7f6051fa3270b5d9dc67277d4b20",
        "factor_corr.csv": "24c4836959a8e4af816c907ca96902593ebb8d11cdd693907a3f6792e4067109",
    }

    def test_report_files_pinned(self, tmp_path, capsys):
        from scipy import stats

        perf = _golden_store(tmp_path)
        assert main(["report", str(tmp_path), "--factors", str(tmp_path / "factors.csv")]) == 0
        board = (tmp_path / "leaderboard.txt").read_text()
        assert capsys.readouterr().out == board
        rows = [r.split(",") for r in (tmp_path / "factor_corr.csv").read_text().splitlines()]
        assert rows[0] == ["task", "factor", "rho", "p_value", "n", "approximate"]
        assert [(r[0], r[1], r[4], r[5]) for r in rows[1:]] == [
            ("AGE", "area", "12", "0"), ("AGE", "gdp", "8", "1"),
            ("POP", "area", "12", "0"), ("POP", "gdp", "8", "1")]
        factors = cli._read_factors(tmp_path / "factors.csv")
        for task, factor, rho, p_value, _, _ in rows[1:]:
            common = sorted(set(factors[factor]) & set(perf[task]))
            sign = -1.0 if task == "AGE" else 1.0
            ref_rho, ref_p = stats.spearmanr([factors[factor][c] for c in common],
                                             [sign * float(np.mean(perf[task][c])) for c in common])
            assert float(rho) == pytest.approx(ref_rho, abs=1e-12)
            assert float(p_value) == pytest.approx(ref_p, abs=1e-9)
        digests = {}
        for name in self.PINNED:
            data = (tmp_path / name).read_bytes()
            if name == "factor_corr.csv":
                data = b"\r\n".join(b",".join(f[:3] + f[4:])
                                     for f in (line.split(b",") for line in data.split(b"\r\n")))
            digests[name] = hashlib.sha256(data).hexdigest()
        assert digests == self.PINNED


class TestVerbs:
    def test_validate_ok(self, bench, capsys):
        assert main(["validate", str(bench / "manifest.json")]) == 0
        assert "resolvable" in capsys.readouterr().out

    def test_validate_failure_exit_1(self, bench):
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["models"]["bad"] = {"dim": 4, "support": "hologram"}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(bench / "manifest.json")]) == 1

    @pytest.mark.parametrize("entry, message", [
        ({"support": "raster"}, "model bad: missing dim"),
        ({"dim": 4}, "model bad: missing support"),
        ({"dim": "four", "support": "raster"}, "model bad: dim must be an integer"),
        ({"dim": True, "support": "raster"}, "model bad: dim must be an integer, got True"),
        ({"dim": 4.7, "support": "raster"}, "model bad: dim must be an integer, got 4.7"),
        ({"dim": "4", "support": "raster"}, "model bad: dim must be an integer, got '4'"),
    ])
    def test_validate_malformed_model_entry(self, bench, capsys, entry, message):
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["models"]["bad"] = {**entry, "files": {"synthA": "field.erf"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(bench / "manifest.json")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m.update(cities={"c": ["x"]}), "cities.c must be a JSON object, got list"),
        (lambda m: m["cities"]["synthA"].update(tasks=["POP"]),
         "cities.synthA.tasks must be a JSON object, got list"),
        (lambda m: m["models"].update(bad=[4, "raster"]), "models.bad must be a JSON object, got list"),
    ], ids=["city", "tasks", "model"])
    def test_validate_non_object_entry(self, bench, capsys, edit, key):
        manifest = json.loads((bench / "manifest.json").read_text())
        edit(manifest)
        (bench / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(bench / "manifest.json")]) == 1
        err = capsys.readouterr().err
        assert f"manifest.json: {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m["models"]["field"].update(hexgrid={"lon0": 0.0, "lat0": 0.0}),
         "models.field: unknown key 'hexgrid'"),
        (lambda m: m["models"]["field"].update(hexgrid=5),
         "models.field: unknown key 'hexgrid'"),
        (lambda m: m["models"]["field"].update(hexgrid={"lat0": 0}),
         "models.field: unknown key 'hexgrid'"),
        (lambda m: m["models"]["field"].update(file=m["models"]["field"].pop("files")),
         "models.field: unknown key 'file'"),
        (lambda m: m["models"]["field"].update(files=["f.erf"]),
         "models.field.files must be a JSON object, got list"),
        (lambda m: m["models"]["field"].update(files={"synthA": 5}),
         "models.field.files.synthA must be a path string, got 5"),
        (lambda m: m["cities"]["synthA"]["tasks"].update(POP=5),
         "cities.synthA.tasks.POP must be a path string, got 5"),
        # each support reads its files or its encoder, never both
        (lambda m: m["models"]["field"].update(encoder="bogus"), "models.field: unknown key 'encoder'"),
        (lambda m: m["models"]["pe"].update(files={"synthA": "missing.erf"}), "models.pe: unknown key 'files'"),
    ], ids=["hexgrid-value", "hexgrid-int", "hexgrid-keys", "file-for-files", "files-list", "file-int", "task-int",
            "encoder-on-raster", "files-on-encoder"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_manifest_value_types(self, bench, capsys, edit, key, verb):
        manifest = json.loads((bench / "manifest.json").read_text())
        edit(manifest)
        (bench / "manifest.json").write_text(json.dumps(manifest))
        args = ["--out", str(bench / "out")] if verb == "run" else []
        assert main([verb, str(bench / "manifest.json"), *args]) == 1
        err = capsys.readouterr().err
        assert f"manifest.json: {key}" in err
        assert "Traceback" not in err
        assert not (bench / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_task_file_without_models_is_loaded(self, tmp_path, capsys, verb):
        # validate loads each task file that run loads, not only those in a pair
        (tmp_path / "t.csv").write_text("# task POP\n# city c\nunit_id,lon,lat,value\nu1,0,0,nan\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"cities": {"c": {"tasks": {"POP": "t.csv"}}}}))
        args = ["--out", str(tmp_path / "out")] if verb == "run" else []
        assert main([verb, str(tmp_path / "manifest.json"), *args]) == 1
        out, err = capsys.readouterr()
        assert "t.csv:4: unit u1: non-finite label" in (out if verb == "validate" else err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("model_id", ["a\nb", "a\rb", "ab\r\n"])
    def test_model_id_with_cr_or_lf(self, bench, capsys, verb, model_id):
        # results.csv holds one row per line, so such an id could not be read back
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["models"][model_id] = manifest["models"]["pe"]
        (bench / "manifest.json").write_text(json.dumps(manifest))
        args = ["--out", str(bench / "out")] if verb == "run" else []
        assert main([verb, str(bench / "manifest.json"), *args]) == 1
        out, err = capsys.readouterr()
        message = f"model {model_id!r}: id contains CR or LF"
        if verb == "validate":
            assert f"error: {message}\n" in out
        else:  # one error line naming the manifest
            assert err == f"error: {bench / 'manifest.json'}: {message}\n"
        assert not (bench / "out").exists()

    def test_validate_names_ragged_entity_row(self, bench, capsys):
        add_model(bench, "ragged", "entity_set", 4, "ragged.csv", RAGGED)
        assert main(["validate", str(bench / "manifest.json")]) == 1
        out = capsys.readouterr().out
        assert "error: model ragged, city synthA: " in out and "ragged.csv:3: expected 6 fields, got 7\n" in out
        assert "ok: ragged" not in out and "ok: field / synthA / POP\n" in out

    def test_validate_and_run_agree(self, bench, capsys):
        # every pair validate lists ok runs without a failure row, and every
        # model whose file fails a pair in run is an error line in validate
        magic, _, rest = (bench / "field.erf").read_bytes().split(b" ", 2)
        add_model(bench, "ragged", "entity_set", 4, "ragged.csv", RAGGED)
        add_model(bench, "wide", "raster", 5, "field.erf")
        add_model(bench, "nan", "raster", 4, "nan.erf", b" ".join([magic, b"nan", rest]))  # x0
        add_model(bench, "nofile", "raster", 4)
        assert main(["validate", str(bench / "manifest.json")]) == 1
        lines = capsys.readouterr().out.splitlines()
        ok = {ln.split()[1] for ln in lines if ln.startswith("ok: ")}
        errors = {ln.split()[2].rstrip(",") for ln in lines if ln.startswith("error: model ")}
        out = run(quick_plan(bench, seeds=(42,)), log=lambda *a: None)
        ran = {r.model_id for r in read_result_store(bench / "out" / "results.csv")}
        assert ok == ran == {"field", "pe"}
        assert errors == {k.split("|")[0] for k, _ in out.failures} == {"ragged", "wide", "nan"}

    @pytest.mark.parametrize("kind", ["metadata", "duplicate", "one-class"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_task_file_names_it(self, bench, capsys, kind, verb):
        task, message = add_bad_task_city(bench, kind)
        args = ["--out", str(bench / "out"), "--seeds", "42"] if verb == "run" else []
        assert main([verb, str(bench / "manifest.json"), *args]) == 1
        captured = capsys.readouterr()
        if verb == "run":  # checked before anything is written
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert message in captured.err
            assert not (bench / "out").exists()
        else:
            assert f"error: city synthB, task {task}: " in captured.out and message in captured.out
            assert "ok: field / synthA / POP\n" in captured.out and "ok: pe / synthB" not in captured.out

    def test_validate_bad_erf_dim_names_model_city_file(self, bench, capsys):
        (bench / "bad.erf").write_bytes(b"erf1 0 0 1 1 1 1 abc\n")
        manifest = json.loads((bench / "manifest.json").read_text())
        manifest["models"]["bad"] = {"dim": 4, "support": "raster", "files": {"synthA": "bad.erf"}}
        (bench / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(bench / "manifest.json")]) == 1
        out = capsys.readouterr().out
        assert "error: model bad, city synthA: " in out and "bad.erf: invalid literal for int()" in out

    @pytest.mark.parametrize("args", [
        ["validate", "nope.json"],
        ["report", "."],
        ["report", ".", "--factors", "nope.csv"],
    ], ids=["validate", "report-no-store", "report-no-factors"])
    def test_missing_file_is_an_error_line(self, bench, capsys, monkeypatch, args):
        monkeypatch.chdir(bench)
        if "--factors" in args:
            run(quick_plan(bench, out=".", models=("field",), seeds=(42,)), log=lambda *a: None)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["out/results.csv", "factors.csv"])
    def test_report_non_utf8_input_exits_1(self, bench, capsys, target):
        run(quick_plan(bench, models=("field",), seeds=(42,)), log=lambda *a: None)
        (bench / "factors.csv").write_text("city,area\nsynthA,1\n")
        with (bench / target).open("ab") as f:
            f.write(b"\xff\n")
        assert main(["report", str(bench / "out"), "--factors", str(bench / "factors.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{target}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--batch-size", "--hidden-dim", "--patience"])
    def test_bad_head_flag_exits_1_and_writes_nothing(self, bench, capsys, flag):
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "out"),
                     flag, "0"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag[2:].replace('-', '_')} must be a positive integer\n"
        assert not (bench / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "0x0"], "grid must be at least 1x1, got 0x0"),
        (["--grid", "10x0"], "grid must be at least 1x1, got 10x0"),
        (["--models", "nope"], "model 'nope' not in manifest"),
        (["--cities", "nope"], "city 'nope' not in manifest"),
        (["--tasks", "NOPE"], "task 'NOPE' not in manifest"),
        (["--tasks", "POP,LST"], "task 'LST' not in manifest"),
        (["--seeds", "42,42"], "repeated seed 42"),
        (["--protocols", "random,spatial,random"], "repeated protocol 'random'"),
        (["--models", "pe,field,pe"], "repeated model 'pe'"),
        (["--cities", "synthA,synthA"], "repeated city 'synthA'"),
        (["--tasks", "POP,POP"], "repeated task 'POP'"),
    ])
    def test_bad_plan_exits_1_and_writes_nothing(self, bench, capsys, flags, message):
        assert main(["run", str(bench / "manifest.json"), "--out", str(bench / "out"), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (bench / "out").exists()

    def test_run_defaults_are_run_plan_defaults(self, monkeypatch):
        plans = []
        monkeypatch.setattr(cli, "run", lambda plan: plans.append(plan) or RunOutcome(0, 0, 0))
        assert main(["run", "m.json", "--out", "d"]) == 0
        assert plans == [RunPlan(Path("m.json"), Path("d"))]

    def test_run_seeds_parsed(self, monkeypatch):
        plans = []
        monkeypatch.setattr(cli, "run", lambda plan: plans.append(plan) or RunOutcome(0, 0, 0))
        assert main(["run", "m.json", "--out", "d", "--seeds", "3,-1"]) == 0
        assert plans[0].seeds == (3, -1)

    @pytest.mark.parametrize("option, text", [
        ("--seeds", "a,b"), ("--seeds", "1,,2"), ("--seeds", ""), ("--protocols", ""), ("--protocols", "spatial,"),
        ("--models", ""), ("--models", "a,,b"), ("--cities", ""), ("--tasks", ""), ("--tasks", ",POP"),
    ], ids=["a,b", "1,,2", "", "protocols=", "protocols=spatial,", "models=", "models=a,,b", "cities=", "tasks=",
            "tasks=,POP"])
    def test_run_bad_seeds_usage_error(self, monkeypatch, capsys, tmp_path, option, text):
        # every comma-list option is read by one parser: an empty list or item is a
        # usage error naming the option, never "no filter" or a RunPlan error
        monkeypatch.setattr(cli, "run", lambda plan: pytest.fail("run must not start"))
        with pytest.raises(SystemExit) as exc:
            main(["run", "m.json", "--out", str(tmp_path / "out"), f"{option}={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        items = "int" if option == "--seeds" else "str"
        assert "usage:" in err and f"argument {option}: {text!r} is not a comma list of nonempty {items} items" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_run_comma_lists_parsed(self, monkeypatch):
        plans = []
        monkeypatch.setattr(cli, "run", lambda plan: plans.append(plan) or RunOutcome(0, 0, 0))
        assert main(["run", "m.json", "--out", "d", "--protocols", "spatial", "--models", "a,b",
                     "--cities", "c", "--tasks", "POP,LST"]) == 0
        plan = plans[0]
        assert (plan.protocols, plan.models, plan.cities, plan.tasks) == (("spatial",), ("a", "b"), ("c",),
                                                                           ("POP", "LST"))

    def test_gradcheck_verb(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 3

    def test_synth_verb(self, tmp_path, capsys):
        cfg = {"n": 8, "extent": [-0.02, -0.02, 0.02, 0.02], "length_scale": 0.01,
               "label_kind": "scalar", "embedding_kind": "field_value", "seed": 5,
               "city": "synthB"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["synth", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "city")]) == 0
        assert (tmp_path / "city" / "manifest.json").exists()
        assert (tmp_path / "city" / "synthB_POP.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"n": 8, "bogus": 1}', "cfg.json: unknown key 'bogus'"),
        ('{"n": 8', "cfg.json: invalid JSON"),
        ('{"n": "x"}', "cfg.json: n must be an integer, got 'x'"),
        ('{"extent": 5}', "cfg.json: extent must be a list of four numbers, got 5"),
        ('[8]', "cfg.json: synth config must be a JSON object, got list"),
        ('{"length_scale": true}', "cfg.json: length_scale must be a finite number, got True"),
        ('{"extent": [1, 1, 0, 0]}', "cfg.json: inverted rectangle"),
        ('{"n": 8, "n_classes": 0, "label_kind": "distribution"}',
         "cfg.json: n_classes and dim must be positive"),
        ('{"n": 8, "n_classes": 1, "label_kind": "distribution"}',
         "cfg.json: distribution labels need n_classes >= 2, got 1"),
        ('{"n": 8, "n_classes": 1, "label_kind": "class"}', "cfg.json: class labels need n_classes >= 2, got 1"),
        ('{"n": 8, "extent": [0, 0, 0, 0.1]}', "cfg.json: extent needs positive area"),
        ('{"n": 8, "length_scale": 1e9, "embedding_kind": "coordinate_pe"}',
         "cfg.json: length_scale must be at most the extent's shorter side 0.2, got 1000000000.0"),
        ('{"n": 10000000000}', "cfg.json: synthetic grid needs 8 <= n <= 2048, got 10000000000"),
        ('{"n": 8, "dim": 100000000000, "embedding_kind": "field_plus_noise", "noise_sd": 0.1}',
         "cfg.json: synthetic arrays need n * n * dim <= 2**24, "
         "got 8 * 8 * 100000000000"),
        ('{"n": 1024, "length_scale": 0.2}',
         "cfg.json: synthetic fields need fields * n * n * kernel taps <= 2**30, got 1 * 1024 * 1024 * 16386"),
    ])
    def test_synth_bad_config_is_one_error_line(self, tmp_path, capsys, text, message):
        (tmp_path / "cfg.json").write_text(text)
        assert main(["synth", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "city")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "city").exists()

    def test_run_and_report_verbs(self, bench):
        code = main(["run", str(bench / "manifest.json"), "--out", str(bench / "cli_out"),
                     "--seeds", "42", "--protocols", "spatial", "--head", "linear",
                     "--models", "field", "--batch-size", "64", "--max-epochs", "20"])
        assert code == 0
        assert main(["report", str(bench / "cli_out")]) == 0

    def test_synth_city_is_loadable_downstream(self, tmp_path):
        # persisted synthetic instances run through the normal pipeline
        cfg = SynthConfig(n=10, extent=Rect(-0.03, -0.03, 0.03, 0.03), length_scale=0.015,
                          label_kind="scalar", embedding_kind="sparse_entities",
                          density=0.5, dim=3, seed=6, city="synthC")
        paths = write_synth_city(cfg, tmp_path / "city")
        plan = RunPlan(manifest_path=paths["manifest"], out_dir=tmp_path / "out",
                       seeds=(42,), protocols=("spatial",), nx=5, ny=5,
                       head=HeadConfig(kind="linear", batch_size=32, max_epochs=12, patience=4))
        out = run(plan, log=lambda *a: None)
        assert out.exit_code == 0
        assert out.new_records == 3


class TestImportPath:
    def test_run_and_report_load_no_scipy(self, bench):
        # scipy is a test dependency only, for oracles (every verb: the test below);
        # numpy.ma by nothing, but a plain np.unique(x) imports it (numpy 2.4);
        # dataclasses by `synth` alone: building a dataclass compiles its methods
        import urbanbench

        script = (
            "import sys\n"
            "from urbanbench.cli import main\n"
            f"codes = [main(['run', {str(bench / 'manifest.json')!r}, '--out', {str(bench / 'out')!r},"
            " '--seeds', '42', '--head', 'linear', '--batch-size', '64', '--max-epochs', '10',"
            " '--patience', '3']),\n"
            f"         main(['report', {str(bench / 'out')!r}])]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m.split('.')[0] == 'scipy' or m in ('numpy.ma', 'dataclasses')))\n"
        )
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] []"

    @pytest.mark.parametrize("verb", ["synth-scalar", "synth-distribution", "synth-class", "validate",
                                      "report-factors", "gradcheck"])
    def test_every_verb_loads_no_scipy(self, bench, verb):
        import urbanbench

        synth = {"synth-scalar": {"label_kind": "scalar", "embedding_kind": "field_plus_noise", "noise_sd": 0.5},
                 "synth-distribution": {"label_kind": "distribution", "n_classes": 3,
                                        "embedding_kind": "sparse_entities", "density": 0.3},
                 "synth-class": {"label_kind": "class", "n_classes": 3, "embedding_kind": "coordinate_pe"}}
        if verb in synth:
            (bench / "cfg.json").write_text(json.dumps({"n": 16, **synth[verb]}))
            args = ["synth", str(bench / "cfg.json"), "--out", str(bench / "city")]
        elif verb == "validate":
            args = ["validate", str(bench / "manifest.json")]
        elif verb == "report-factors":
            (bench / "store").mkdir()
            _golden_store(bench / "store")  # twelve cities, so factor_corr.csv has p-values
            args = ["report", str(bench / "store"), "--factors", str(bench / "store" / "factors.csv")]
        else:
            args = ["gradcheck"]
        script = (
            "import sys\n"
            "from urbanbench.cli import main\n"
            f"code = main({args!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_report_loads_no_openssl(self, bench):
        # `report` takes no digest, and loading OpenSSL's `_hashlib` costs its start-up about 5 ms
        import urbanbench

        run(quick_plan(bench, seeds=(42,)), log=lambda *a: None)
        script = (
            "import sys\n"
            "from urbanbench.cli import main\n"
            f"code = main(['report', {str(bench / 'out')!r}])\n"
            "print(code, sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')))\n"
        )
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_run_loads_neither_aggregate_nor_synth(self, bench):
        # `run` needs neither module; `report` needs aggregate but not synth
        import urbanbench

        script = (
            "import sys\n"
            "from urbanbench.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m in ('urbanbench.aggregate', 'urbanbench.synth'))\n"
            f"code = main(['run', {str(bench / 'manifest.json')!r}, '--out', {str(bench / 'out')!r},"
            " '--seeds', '42', '--head', 'linear', '--batch-size', '64', '--max-epochs', '10',"
            " '--patience', '3'])\n"
            "print('loaded', code, loaded())\n"
            f"code = main(['report', {str(bench / 'out')!r}])\n"
            "print('loaded', code, loaded())\n"
        )
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("loaded ")] == [
            "loaded 0 []", "loaded 0 ['urbanbench.aggregate']"]

    @pytest.mark.parametrize("collector", ["enabled", "disabled"])
    def test_import_freezes_heap_and_leaves_collector_as_found(self, bench, collector):
        # what `import urbanbench.cli` creates lives as long as the process, so it
        # is frozen out of every later collection; the collector is left as found.
        # A frozen object that reference counting frees leaves the frozen set, so
        # `main` may lower the count, but it never freezes more.
        import urbanbench

        script = (
            "import gc\n"
            f"{'gc.disable()' if collector == 'disabled' else 'gc.enable()'}\n"
            "before = gc.isenabled()\n"
            "import urbanbench.cli as cli\n"
            "frozen = gc.get_freeze_count()\n"
            "print('import', before, gc.isenabled(), frozen > 0)\n"
            f"codes = [cli.main(['run', {str(bench / 'manifest.json')!r}, '--out', {str(bench / 'out')!r},"
            " '--seeds', '42', '--head', 'linear', '--batch-size', '64', '--max-epochs', '10',"
            " '--patience', '3']),\n"
            f"         cli.main(['report', {str(bench / 'out')!r}])]\n"
            "print('main', codes, gc.isenabled(), 0 < gc.get_freeze_count() <= frozen)\n"
        )
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        on = collector == "enabled"
        assert [line for line in proc.stdout.splitlines() if line.startswith(("import ", "main "))] == [
            f"import {on} {on} True", f"main [0, 0] {on} True"]

    def test_cli_processes_match_in_process_run(self, bench):
        # the benchmark's traffic, each verb a fresh `python -m urbanbench.cli`
        # process: run, a rerun over the complete store, then report. The
        # report's stdout is its leaderboard, so stdout is flushed at exit.
        import urbanbench

        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
        manifest, out = str(bench / "manifest.json"), bench / "out"
        opts = ["--seeds", "42,24", "--protocols", "spatial,random", "--head", "linear",
                "--batch-size", "64", "--max-epochs", "10", "--patience", "3"]
        procs = [subprocess.run([sys.executable, "-m", "urbanbench.cli", *argv], capture_output=True,
                                text=True, env=env, timeout=120)
                 for argv in (["run", manifest, "--out", str(out), *opts],
                              ["run", manifest, "--out", str(out), *opts],
                              ["report", str(out)])]
        assert [p.returncode for p in procs] == [0, 0, 0], [p.stderr for p in procs]
        assert main(["run", manifest, "--out", str(bench / "ref"), *opts]) == 0
        assert (out / "results.csv").read_bytes() == (bench / "ref" / "results.csv").read_bytes()
        assert procs[2].stdout == (out / "leaderboard.txt").read_text()

    def test_package_import_loads_no_submodule(self):
        # `import urbanbench` is only the package; each verb imports what it uses
        import urbanbench

        script = ("import sys, urbanbench\n"
                  "print(sorted(m for m in sys.modules if m.startswith('urbanbench.')))\n"
                  "from urbanbench import cli, heads\n")
        src = str(Path(urbanbench.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
