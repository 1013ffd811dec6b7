"""Tests for spatial/random split generation and the split cache file."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import TaskUnit, block_colrow, dataset, units_of
from urbanbench.core import Rect, ValidationError
from urbanbench.grid import BlockGrid, assign_blocks
from urbanbench.split import (
    DEFAULT_SEEDS,
    DEFAULT_TEST_FRAC,
    DEFAULT_VAL_FRAC,
    random_split,
    spatial_split,
    write_split_csv,
)

EXTENT = Rect(0.0, 0.0, 10.0, 10.0)


def grid_task(n_side=10, city="demo", task="POP"):
    """One unit per block center on an n_side x n_side grid: all blocks occupied."""
    units = []
    step = 10.0 / n_side
    for iy in range(n_side):
        for ix in range(n_side):
            units.append(TaskUnit(f"u{iy}_{ix}", (ix + 0.5) * step, (iy + 0.5) * step))
    return dataset(city, task, units, np.zeros(len(units)), EXTENT)


def block_sets(task, grid, a) -> dict[str, set[int]]:
    """{label: the blocks of the units that carry it}, each unit's block from
    `assign_blocks` and its label from the split."""
    block_of = assign_blocks(task.lons, task.lats, grid)
    return {lab: set(block_of[a.labels == lab].tolist()) for lab in ("train", "val", "test")}


def assert_one_label_per_block(task, grid, a):
    sets = block_sets(task, grid, a)
    assert not (sets["train"] & sets["val"])
    assert not (sets["train"] & sets["test"])
    assert not (sets["val"] & sets["test"])


class TestSpatialSplit:
    def test_default_fractions_100_blocks(self):
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        for seed in DEFAULT_SEEDS:
            a = spatial_split(task, grid, seed)
            assert_one_label_per_block(task, grid, a)
            sets = block_sets(task, grid, a)
            assert (len(sets["train"]), len(sets["val"]), len(sets["test"])) == (72, 8, 20)

    def test_five_seeds_reproducible(self):
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        for seed in DEFAULT_SEEDS:
            a = spatial_split(task, grid, seed)
            b = spatial_split(task, grid, seed)
            assert a.assignment_hash == b.assignment_hash
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        hashes = {spatial_split(task, grid, s).assignment_hash for s in DEFAULT_SEEDS}
        assert len(hashes) == 5

    def test_labels_partition_units(self):
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=7)
        counts = Counter(a.labels.tolist())
        assert set(counts) == {"train", "val", "test"}
        assert sum(counts.values()) == task.n

    def test_block_sets_disjoint_and_cover_occupied(self):
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=24)
        assert_one_label_per_block(task, grid, a)
        sets = block_sets(task, grid, a)
        assert sets["train"] | sets["val"] | sets["test"] == set(range(100))

    def test_membership_induced_labels(self):
        # a unit's label is its block's: the per-point reference block of
        # every unit of one block carries one label
        from test_grid import assign_block

        units = [v for i, u in enumerate(units_of(grid_task(5)))
                 for v in (u, TaskUnit(f"v{i}", u.lon + 0.25, u.lat - 0.25))]
        task = dataset("demo", "POP", units, np.zeros(len(units)), EXTENT)
        grid = BlockGrid(EXTENT, 5, 5)
        for seed in DEFAULT_SEEDS:
            a = spatial_split(task, grid, seed)
            label_of_block: dict[int, str] = {}
            for u, lab in zip(units_of(task), a.labels.tolist()):
                assert label_of_block.setdefault(assign_block(u, grid), lab) == lab
            assert len(label_of_block) == 25

    def test_no_train_test_block_overlap(self):
        # spatial separation: train and test units never share a block
        from test_grid import assign_block

        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        for seed in DEFAULT_SEEDS:
            a = spatial_split(task, grid, seed)
            train_blocks = {assign_block(u, grid) for u, l in zip(units_of(task), a.labels) if l == "train"}
            test_blocks = {assign_block(u, grid) for u, l in zip(units_of(task), a.labels) if l == "test"}
            assert not (train_blocks & test_blocks)

    def test_only_occupied_blocks_participate(self):
        # units cover only the left half; the fractions apply to its 50
        # occupied blocks, so no empty right-half block is drawn
        units = [TaskUnit(f"u{i}", 0.5 + (i % 5), 0.5 + (i // 5)) for i in range(50)]
        task = dataset("demo", "POP", units, np.zeros(50), EXTENT)
        grid = BlockGrid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=42)
        sets = block_sets(task, grid, a)
        occupied = sets["train"] | sets["val"] | sets["test"]
        assert len(occupied) == 50
        assert all(block_colrow(grid, b)[0] < 5 for b in occupied)
        assert (len(sets["train"]), len(sets["val"]), len(sets["test"])) == (36, 4, 10)

    def test_fraction_accuracy(self):
        for n_side in (5, 7, 9):
            task = grid_task(n_side)
            grid = BlockGrid(EXTENT, n_side, n_side)
            for seed in (1, 2, 3):
                a = spatial_split(task, grid, seed)
                sets = block_sets(task, grid, a)
                occ = len(sets["train"] | sets["val"] | sets["test"])
                assert occ == n_side * n_side
                assert abs(len(sets["test"]) - DEFAULT_TEST_FRAC * occ) <= 1
                assert abs(len(sets["val"]) - DEFAULT_VAL_FRAC * (occ - len(sets["test"]))) <= 1

    def test_single_block_errors(self):
        units = [TaskUnit(f"u{i}", 0.5, 0.5) for i in range(10)]
        task = dataset("demo", "POP", units, np.zeros(10), EXTENT)
        grid = BlockGrid(EXTENT, 10, 10)
        with pytest.raises(ValidationError, match="3"):
            spatial_split(task, grid, seed=0)

    def test_model_invariance_hash_stability(self):
        # the hash depends only on (task, grid, seed); recomputation matches
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        h1 = spatial_split(task, grid, 42).assignment_hash
        task2 = grid_task(10)  # rebuilt from scratch
        h2 = spatial_split(task2, BlockGrid(EXTENT, 10, 10), 42).assignment_hash
        assert h1 == h2


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(extent=st.sampled_from([EXTENT, Rect(-0.1, -0.1, 0.1, 0.1), Rect(-0.0, 0.0, 3.0, 1e-3),
                               Rect(-74.05, 40.6, -73.9, 40.9)]),
       nx=st.integers(1, 12), ny=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       points=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=60))
def test_spatial_split_gives_each_block_one_label(extent, nx, ny, seed, points):
    # the labels the pipeline trains on, grouped by the pipeline's own unit
    # blocks: a block's units share one label, and the occupied blocks split
    # at the protocol fractions
    units = [TaskUnit(f"u{i}", extent.x0 + fx * extent.width, extent.y0 + fy * extent.height)
             for i, (fx, fy) in enumerate(points)]
    task = dataset("demo", "POP", units, np.zeros(len(units)), extent)
    grid = BlockGrid(extent, nx, ny)
    n_occupied = len(set(assign_blocks(task.lons, task.lats, grid).tolist()))
    if n_occupied < 3:
        with pytest.raises(ValidationError, match="occupied blocks"):
            spatial_split(task, grid, seed)
        return
    a = spatial_split(task, grid, seed)
    assert_one_label_per_block(task, grid, a)
    sets = block_sets(task, grid, a)
    n_test = max(1, _round_half_up(DEFAULT_TEST_FRAC * n_occupied))
    n_val = max(1, _round_half_up(DEFAULT_VAL_FRAC * (n_occupied - n_test)))
    assert (len(sets["test"]), len(sets["val"])) == (n_test, n_val)
    assert len(sets["train"]) == n_occupied - n_test - n_val


class TestRandomSplit:
    def test_default_fractions_100_units(self):
        task = grid_task(10)
        a = random_split(task, seed=42)
        assert Counter(a.labels.tolist()) == {"train": 72, "val": 8, "test": 20}

    def test_disjoint_every_seed(self):
        task = grid_task(10)
        for seed in DEFAULT_SEEDS:
            a = random_split(task, seed)
            counts = Counter(a.labels.tolist())
            assert set(counts) == {"train", "val", "test"}
            assert sum(counts.values()) == task.n

    def test_same_seed_identical(self):
        task = grid_task(10)
        a = random_split(task, seed=7)
        b = random_split(task, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_differs_from_spatial(self):
        task = grid_task(10)
        grid = BlockGrid(EXTENT, 10, 10)
        a = spatial_split(task, grid, 42)
        b = random_split(task, 42)
        assert a.assignment_hash != b.assignment_hash

    def test_too_few_units(self):
        units = [TaskUnit("u0", 1.0, 1.0), TaskUnit("u1", 2.0, 2.0)]
        task = dataset("demo", "POP", units, np.zeros(2), EXTENT)
        with pytest.raises(ValidationError):
            random_split(task, seed=0)


class TestSplitCache:
    def test_write_and_read(self, tmp_path):
        task = grid_task(5)
        grid = BlockGrid(EXTENT, 5, 5)
        a = spatial_split(task, grid, 42)
        p = tmp_path / "split.csv"
        write_split_csv(p, a)
        text = p.read_text()
        assert f"# hash {a.assignment_hash}" in text
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        assert rows == [["unit_id", "label"]] + [[u, lab] for u, lab in zip(a.unit_ids, a.labels)]
