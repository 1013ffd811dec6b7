"""Benchmark workloads and their input generation (the set-up step).

Every input is derived from the workload seed through urbanbench's public
synthetic-city API and file writers, so the program under test receives only
files on disk: task CSVs, `.erf` rasters, entity and cell-table CSVs and a
manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from urbanbench.align import write_cell_table_csv, write_entity_csv, write_erf
from urbanbench.core import CellTableSupport, Rect, write_task_dataset
from urbanbench.grid import HexGrid, hex_cell_of
from urbanbench.synth import SynthConfig, synth_city

DEFAULT_SEED = 1

# Manifest entries per model kind: (model id, synth embedding kind, support).
MODELS = {
    "raster": ("raster16", "field_plus_noise", "raster"),
    "entities": ("entities16", "sparse_entities", "entity_set"),
    "table": ("table16", "field_plus_noise", "cell_table"),
    "pe": ("pe", "coordinate_pe", "coordinate_encoder"),
}
DIM = 16
NOISE_SD = 0.5
LENGTH_SCALE = 0.02
ENTITY_DENSITY = 0.3
TABLE_KEEP = 0.8   # share of hex cells kept in the cell table


@dataclass(frozen=True)
class Workload:
    name: str
    n_cities: int
    n: int                       # task units per city: n * n raster cells
    half_extent: float           # degrees either side of (0, 0)
    label_kinds: tuple[str, ...]
    models: tuple[str, ...]      # keys of MODELS
    head: str
    seeds: tuple[int, ...]
    protocols: tuple[str, ...]
    digest: str | None = None    # sha256 of results.csv at DEFAULT_SEED
    cli_args: tuple[str, ...] = ()

    @property
    def cities(self) -> list[str]:
        return [f"city{i:02d}" for i in range(self.n_cities)]

    @property
    def groups(self) -> int:
        """(model, task, city, seed, protocol) groups of one complete run."""
        return (len(self.models) * len(self.label_kinds) * self.n_cities
                * len(self.seeds) * len(self.protocols))

    def expected_groups(self) -> set[tuple[str, str, str, str, str]]:
        tasks = [SynthConfig(label_kind=k).task for k in self.label_kinds]
        return {(MODELS[m][0], t, c, str(s), p)
                for m in self.models for t in tasks for c in self.cities
                for s in self.seeds for p in self.protocols}

    def run_args(self, manifest: Path, out: Path) -> list[str]:
        return ["run", str(manifest), "--out", str(out), "--grid", "10x10",
                "--head", self.head, "--seeds", ",".join(map(str, self.seeds)),
                "--protocols", ",".join(self.protocols), *self.cli_args]


# patience = max_epochs - 1, so every head trains exactly max_epochs epochs and
# the work of a run does not depend on the workload seed.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="mlp-train",
        n_cities=1, n=32, half_extent=0.1, label_kinds=("scalar",),
        models=("raster", "pe"), head="mlp", seeds=(42,), protocols=("spatial", "random"),
        cli_args=("--max-epochs", "20", "--patience", "19"),
        digest="d1dbe04073a27f58e696e9ffc319b7b2ad3db828ab0fc26d84deb89274a20a24",
    ),
    Workload(
        name="align-large",
        n_cities=1, n=64, half_extent=0.1, label_kinds=("scalar",),
        models=("raster", "entities", "table", "pe"), head="linear", seeds=(42,),
        protocols=("spatial",), cli_args=("--max-epochs", "30", "--patience", "29"),
        digest="93dcc669bd502837a330465e45aa48e914aac8de35b1cdf8ab7f81d126100472",
    ),
)}


def tiny(w: Workload) -> Workload:
    """A seconds-long variant with the same layers, for the benchmark's own tests."""
    return replace(w, n_cities=min(w.n_cities, 2), n=8, seeds=w.seeds[:1], digest=None,
                   cli_args=("--hidden-dim", "16", "--max-epochs", "4", "--patience", "2"))


def _cell_table(task, raster_values: np.ndarray, rng: np.random.Generator) -> CellTableSupport:
    """Mean raster vector of the units in each hex cell, over a random share of cells."""
    grid = HexGrid(*task.extent.center)
    flat = raster_values.reshape(-1, raster_values.shape[-1]).astype(np.float64)
    sums: dict[tuple[int, int], np.ndarray] = {}
    counts: dict[tuple[int, int], int] = {}
    for i, u in enumerate(task.units):
        cell = hex_cell_of(u.lon, u.lat, grid)
        sums[cell] = sums.get(cell, 0.0) + flat[i]
        counts[cell] = counts.get(cell, 0) + 1
    cells = sorted(sums)
    keep = rng.random(len(cells)) < TABLE_KEEP
    return CellTableSupport(grid=grid, table={c: sums[c] / counts[c]
                                              for c, k in zip(cells, keep) if k})


def generate(w: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's inputs for `seed` into the new directory `out_dir`;
    return the manifest path."""
    out_dir.mkdir(parents=True)
    h = w.half_extent
    extent = Rect(-h, -h, h, h)
    cities: dict[str, dict] = {}
    models = {MODELS[m][0]: {"dim": DIM, "support": MODELS[m][2], "files": {}} for m in w.models}
    if "pe" in w.models:
        models["pe"] = {"dim": 192, "support": "coordinate_encoder",
                        "encoder": "pe_spherec_approx"}
    for ci, city in enumerate(w.cities):
        city_seed = seed * 1000 + ci
        tasks = {}
        for kind in w.label_kinds:
            cfg = SynthConfig(n=w.n, extent=extent, length_scale=LENGTH_SCALE, noise_sd=NOISE_SD,
                              label_kind=kind, embedding_kind="field_plus_noise", dim=DIM,
                              seed=city_seed, city=city)
            task, raster = synth_city(cfg)
            path = out_dir / f"{city}_{task.task}.csv"
            write_task_dataset(path, task)
            tasks[task.task] = path.name
        cities[city] = {"tasks": tasks}
        # Every label kind shares the city's first field, so one embedding
        # file per (model, city) serves all of the city's tasks.
        for m in w.models:
            model_id, kind, support = MODELS[m]
            path = out_dir / f"{model_id}_{city}"
            if support == "raster":
                path = path.with_suffix(".erf")
                write_erf(path, raster.support)
            elif support == "entity_set":
                _, rep = synth_city(replace(cfg, embedding_kind=kind, density=ENTITY_DENSITY))
                path = path.with_suffix(".csv")
                write_entity_csv(path, rep.support)
            elif support == "cell_table":
                rng = np.random.default_rng([seed, ci, 7])
                path = path.with_suffix(".csv")
                write_cell_table_csv(path, _cell_table(task, raster.support.values, rng))
            else:
                continue
            models[model_id]["files"][city] = path.name
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({"cities": cities, "models": models}, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    return manifest
