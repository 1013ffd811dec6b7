"""Tests for spatial/random split generation and the split cache file."""

import numpy as np
import pytest

from urbanbench.core import Rect, TaskDataset, TaskUnit, ValidationError
from urbanbench.grid import build_block_grid
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
    return TaskDataset(city, task, units, np.zeros(len(units)), EXTENT)


class TestSpatialSplit:
    def test_default_fractions_100_blocks(self):
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=42)
        assert len(a.test_blocks) == 20
        assert len(a.val_blocks) == 8
        assert len(a.train_blocks) == 72

    def test_five_seeds_reproducible(self):
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        for seed in DEFAULT_SEEDS:
            a = spatial_split(task, grid, seed)
            b = spatial_split(task, grid, seed)
            assert a.assignment_hash() == b.assignment_hash()
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        hashes = {spatial_split(task, grid, s).assignment_hash() for s in DEFAULT_SEEDS}
        assert len(hashes) == 5

    def test_labels_partition_units(self):
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=7)
        counts = a.counts()
        assert sum(counts.values()) == task.n

    def test_block_sets_disjoint_and_cover_occupied(self):
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=24)
        assert not (a.train_blocks & a.val_blocks)
        assert not (a.train_blocks & a.test_blocks)
        assert not (a.val_blocks & a.test_blocks)
        assert a.train_blocks | a.val_blocks | a.test_blocks == set(range(100))

    def test_membership_induced_labels(self):
        from urbanbench.grid import assign_block

        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=0)
        for u, lab in zip(task.units, a.labels):
            b = assign_block(u, grid)
            expected = ("test" if b in a.test_blocks
                        else "val" if b in a.val_blocks else "train")
            assert lab == expected

    def test_no_train_test_block_overlap(self):
        # spatial separation: train and test units never share a block
        from urbanbench.grid import assign_block

        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        for seed in DEFAULT_SEEDS:
            a = spatial_split(task, grid, seed)
            train_blocks = {assign_block(u, grid) for u, l in zip(task.units, a.labels) if l == "train"}
            test_blocks = {assign_block(u, grid) for u, l in zip(task.units, a.labels) if l == "test"}
            assert not (train_blocks & test_blocks)

    def test_only_occupied_blocks_participate(self):
        # units cover only the left half; right-half blocks never appear
        units = [TaskUnit(f"u{i}", 0.5 + (i % 5), 0.5 + (i // 5)) for i in range(50)]
        task = TaskDataset("demo", "POP", units, np.zeros(50), EXTENT)
        grid = build_block_grid(EXTENT, 10, 10)
        a = spatial_split(task, grid, seed=42)
        occupied = a.train_blocks | a.val_blocks | a.test_blocks
        assert len(occupied) == 50
        assert all(grid.block_colrow(b)[0] < 5 for b in occupied)

    def test_fraction_accuracy(self):
        for n_side in (5, 7, 9):
            task = grid_task(n_side)
            grid = build_block_grid(EXTENT, n_side, n_side)
            for seed in (1, 2, 3):
                a = spatial_split(task, grid, seed)
                occ = len(a.train_blocks | a.val_blocks | a.test_blocks)
                assert abs(len(a.test_blocks) - DEFAULT_TEST_FRAC * occ) <= 1
                assert abs(len(a.val_blocks) - DEFAULT_VAL_FRAC * (occ - len(a.test_blocks))) <= 1

    def test_single_block_errors(self):
        units = [TaskUnit(f"u{i}", 0.5, 0.5) for i in range(10)]
        task = TaskDataset("demo", "POP", units, np.zeros(10), EXTENT)
        grid = build_block_grid(EXTENT, 10, 10)
        with pytest.raises(ValidationError, match="3"):
            spatial_split(task, grid, seed=0)

    def test_model_invariance_hash_stability(self):
        # the hash depends only on (task, grid, seed); recomputation matches
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        h1 = spatial_split(task, grid, 42).assignment_hash()
        task2 = grid_task(10)  # rebuilt from scratch
        h2 = spatial_split(task2, build_block_grid(EXTENT, 10, 10), 42).assignment_hash()
        assert h1 == h2


class TestRandomSplit:
    def test_default_fractions_100_units(self):
        task = grid_task(10)
        a = random_split(task, seed=42)
        c = a.counts()
        assert c == {"train": 72, "val": 8, "test": 20}

    def test_disjoint_every_seed(self):
        task = grid_task(10)
        for seed in DEFAULT_SEEDS:
            a = random_split(task, seed)
            assert sum(a.counts().values()) == task.n

    def test_same_seed_identical(self):
        task = grid_task(10)
        a = random_split(task, seed=7)
        b = random_split(task, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_differs_from_spatial(self):
        task = grid_task(10)
        grid = build_block_grid(EXTENT, 10, 10)
        a = spatial_split(task, grid, 42)
        b = random_split(task, 42)
        assert a.assignment_hash() != b.assignment_hash()

    def test_too_few_units(self):
        units = [TaskUnit("u0", 1.0, 1.0), TaskUnit("u1", 2.0, 2.0)]
        task = TaskDataset("demo", "POP", units, np.zeros(2), EXTENT)
        with pytest.raises(ValidationError):
            random_split(task, seed=0)


class TestSplitCache:
    def test_write_and_read(self, tmp_path):
        task = grid_task(5)
        grid = build_block_grid(EXTENT, 5, 5)
        a = spatial_split(task, grid, 42)
        p = tmp_path / "split.csv"
        write_split_csv(p, a)
        text = p.read_text()
        assert f"# hash {a.assignment_hash()}" in text
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        assert rows == [["unit_id", "label"]] + [[u, lab] for u, lab in zip(a.unit_ids, a.labels)]
