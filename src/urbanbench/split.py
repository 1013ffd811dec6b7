"""Model-invariant spatial block splits and random-split diagnostics.

Splits depend only on (task, grid, seed) and never on any representation.
The RNG is PCG64 seeded from a hash of (city, task, protocol, seed), so
assignments are bit-identical across platforms and insertion orders.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import TaskDataset, ValidationError, checked, stable_seed, write_atomic
from .grid import BlockGrid, assign_blocks

TRAIN, VAL, TEST = "train", "val", "test"

DEFAULT_TEST_FRAC = 0.2
DEFAULT_VAL_FRAC = 0.1
DEFAULT_SEEDS = (42, 24, 7, 0, 100)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _rng(city: str, task: str, protocol: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(stable_seed(city, task, protocol, seed))


@checked
class _SplitAssignment(NamedTuple):
    city: str
    task: str
    seed: int
    protocol: str
    unit_ids: tuple[str, ...]
    labels: np.ndarray
    grid_sig: tuple | None = None

    def _check(self):
        if len(self.labels) != len(self.unit_ids):
            raise ValidationError("labels and unit_ids length mismatch")
        bad = set(self.labels.tolist()) - {TRAIN, VAL, TEST}
        if bad:
            raise ValidationError(f"unknown split labels {bad}")


class SplitAssignment(_SplitAssignment):
    """Per-unit train/val/test labels for one (city, task, seed, protocol).

    The one checked record of two classes: `rows_text` and `assignment_hash` are
    cached (`run` reads each split's hash twice), and a `cached_property` cannot
    sit in a NamedTuple body, whose class has no instance `__dict__` and, on
    Python 3.11, never gives the property its name. This subclass, with no
    `__slots__`, keeps the cached values in its instance `__dict__`."""

    def mask(self, label: str) -> np.ndarray:
        return self.labels == label

    @cached_property
    def rows_text(self) -> str:
        """The `unit_id,label` lines, as the split CSV holds them and the hash reads them."""
        return "".join(f"{uid},{lab}\n" for uid, lab in zip(self.unit_ids, self.labels.tolist()))

    @cached_property
    def assignment_hash(self) -> str:
        import hashlib  # here, not at module level, as in `core.stable_seed`

        head = (f"{self.city}|{self.task}|{self.protocol}|{self.seed}|"
                f"{DEFAULT_TEST_FRAC!r}|{DEFAULT_VAL_FRAC!r}|{self.grid_sig}\n")
        return hashlib.sha256((head + self.rows_text).encode()).hexdigest()


def _draw(task: TaskDataset, protocol: str, seed: int, block_of: np.ndarray, what: str) -> np.ndarray:
    """Unit labels from a draw over the occupied blocks: test blocks, then val
    blocks among the rest, at least one each, so at least one block is left
    for training whenever there are 3 or more. A unit takes its block's label."""
    counts = np.bincount(block_of)
    occupied = np.flatnonzero(counts)
    n = len(occupied)
    if n < 3:
        raise ValidationError(f"need at least 3 {what} to form three partitions, got {n}")
    n_test = max(1, _round_half_up(DEFAULT_TEST_FRAC * n))
    n_val = max(1, _round_half_up(DEFAULT_VAL_FRAC * (n - n_test)))
    rng = _rng(task.city, task.task, protocol, seed)
    test_blocks = rng.choice(occupied, size=n_test, replace=False)
    val_blocks = rng.choice(occupied[~np.isin(occupied, test_blocks)], size=n_val, replace=False)
    block_labels = np.full(len(counts), TRAIN, dtype="<U5")
    block_labels[val_blocks] = VAL
    block_labels[test_blocks] = TEST
    return block_labels[block_of]


def spatial_split(task: TaskDataset, grid: BlockGrid, seed: int) -> SplitAssignment:
    """Assign occupied blocks (not units) to train/val/test; unit labels follow
    block membership. Only blocks containing at least one unit participate."""
    labels = _draw(task, "spatial", seed, assign_blocks(task.lons, task.lats, grid), "occupied blocks")
    return SplitAssignment(
        city=task.city, task=task.task, seed=seed, protocol="spatial",
        unit_ids=task.unit_ids, labels=labels, grid_sig=grid.signature(),
    )


def random_split(task: TaskDataset, seed: int) -> SplitAssignment:
    """Unit-level uniform split with the same fractions and seed derivation:
    the spatial draw with each unit as its own block."""
    labels = _draw(task, "random", seed, np.arange(task.n), "units")
    return SplitAssignment(
        city=task.city, task=task.task, seed=seed, protocol="random",
        unit_ids=task.unit_ids, labels=labels,
    )


def write_split_csv(path: str | Path, a: SplitAssignment) -> None:
    """Cache file: `unit_id,label` rows under a comment header recording the
    grid params, seed, fractions, and assignment hash."""
    lines = [
        f"# split city={a.city} task={a.task} protocol={a.protocol} seed={a.seed}",
        f"# fractions test={DEFAULT_TEST_FRAC!r} val={DEFAULT_VAL_FRAC!r}",
        f"# grid {a.grid_sig}",
        f"# hash {a.assignment_hash}",
        "unit_id,label\n",
    ]
    write_atomic(Path(path), "\n".join(lines) + a.rows_text)
