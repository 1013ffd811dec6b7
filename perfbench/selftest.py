"""Tests of the benchmark itself, on its tiny-size workloads.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    """A complete untraced tiny run of mlp-train: (workload, manifest, out dir)."""
    w = workloads.tiny(workloads.WORKLOADS["mlp-train"])
    base = tmp_path_factory.mktemp("store")
    manifest = workloads.generate(w, workloads.DEFAULT_SEED, base / "inputs")
    rep = run.run_rep(w, manifest, base / "out", None, traced=False, tag="rep")
    assert rep.problems == []
    return w, manifest, base / "out"


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layers = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(e["what"] and e["moves"] for e in layers.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    p = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace,
               "--size", "tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"]
                                                                     for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "environment " in p.stdout and "failed_frac" in p.stdout


def test_output_check_passes_a_complete_store(tiny_store):
    w, _, out = tiny_store
    digest = run.sha256(out / "results.csv")
    assert run.check_outputs(out, 0, w, digest) == []


@pytest.mark.parametrize("damage", ["drop_row", "edit_value", "bad_header", "remove",
                                    "failures_csv", "exit_code"])
def test_output_check_trips_on_a_damaged_store(tiny_store, tmp_path, damage):
    w, _, good = tiny_store
    out = tmp_path / "out"
    shutil.copytree(good, out)
    digest = run.sha256(good / "results.csv")
    store = out / "results.csv"
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    code = 0
    if damage == "drop_row":
        store.write_text("".join(lines[:-1]), encoding="utf-8")
    elif damage == "edit_value":
        fields = lines[1].split(",")
        fields[6] = repr(float(fields[6]) + 1e-12)
        store.write_text("".join([lines[0], ",".join(fields)] + lines[2:]), encoding="utf-8")
    elif damage == "bad_header":
        store.write_text("".join(["x" + lines[0]] + lines[1:]), encoding="utf-8")
    elif damage == "remove":
        store.unlink()
    elif damage == "failures_csv":
        (out / "failures.csv").write_text("run_key,error\n", encoding="utf-8")
    else:
        code = 2
    assert run.check_outputs(out, code, w, digest) != []


def test_a_failed_check_counts_every_group_and_is_not_retried(monkeypatch, capsys):
    real_tiny = workloads.tiny
    monkeypatch.setattr(workloads, "tiny", lambda w: replace(real_tiny(w), digest="0" * 64))
    assert run.main(["--workload", "align-large", "--seed", str(workloads.DEFAULT_SEED),
                     "--seconds", "0", "--trace", "0", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    groups = real_tiny(workloads.WORKLOADS["align-large"]).groups
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == groups
    assert "output check failed" in out and "sha256" in out


def test_traced_and_untraced_runs_write_identical_stores(tiny_store, tmp_path):
    w, manifest, out = tiny_store
    rep = run.run_rep(w, manifest, tmp_path / "traced", None, traced=True, tag="traced")
    assert rep.problems == []
    assert (tmp_path / "traced" / "results.csv").read_bytes() == (out / "results.csv").read_bytes()
    metrics = run.trace_layers(rep)
    assert metrics["heads.train_head.calls"] == w.groups
    assert metrics["cli.groups"] == w.groups


def test_fails_without_a_printed_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
