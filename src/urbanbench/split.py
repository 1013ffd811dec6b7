"""Model-invariant spatial block splits and random-split diagnostics.

Splits depend only on (task, grid, seed) and never on any representation.
The RNG is PCG64 seeded from a hash of (city, task, protocol, seed), so
assignments are bit-identical across platforms and insertion orders.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import TaskDataset, ValidationError, stable_seed, write_atomic
from .grid import BlockGrid, assign_blocks

TRAIN, VAL, TEST = "train", "val", "test"

DEFAULT_TEST_FRAC = 0.2
DEFAULT_VAL_FRAC = 0.1
DEFAULT_SEEDS = (42, 24, 7, 0, 100)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _rng(city: str, task: str, protocol: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(stable_seed(city, task, protocol, seed))


@dataclass(frozen=True)
class SplitAssignment:
    """Per-unit train/val/test labels for one (city, task, seed, protocol)."""

    city: str
    task: str
    seed: int
    protocol: str
    unit_ids: tuple[str, ...]
    labels: np.ndarray
    grid_sig: tuple | None = None
    train_blocks: frozenset[int] | None = None
    val_blocks: frozenset[int] | None = None
    test_blocks: frozenset[int] | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.unit_ids):
            raise ValidationError("labels and unit_ids length mismatch")
        bad = set(self.labels.tolist()) - {TRAIN, VAL, TEST}
        if bad:
            raise ValidationError(f"unknown split labels {bad}")

    def mask(self, label: str) -> np.ndarray:
        return self.labels == label

    def counts(self) -> dict[str, int]:
        return {s: int(np.count_nonzero(self.labels == s)) for s in (TRAIN, VAL, TEST)}

    @cached_property
    def rows_text(self) -> str:
        """The `unit_id,label` lines, as the split CSV holds them and the hash reads them."""
        return "".join(f"{uid},{lab}\n" for uid, lab in zip(self.unit_ids, self.labels.tolist()))

    @cached_property
    def _hash(self) -> str:
        head = (f"{self.city}|{self.task}|{self.protocol}|{self.seed}|"
                f"{DEFAULT_TEST_FRAC!r}|{DEFAULT_VAL_FRAC!r}|{self.grid_sig}\n")
        return hashlib.sha256((head + self.rows_text).encode()).hexdigest()

    def assignment_hash(self) -> str:
        return self._hash


def _partition_counts(n: int, what: str) -> tuple[int, int]:
    """(n_val, n_test) of n items; at least one each, which leaves at least one
    for training whenever n >= 3."""
    if n < 3:
        raise ValidationError(f"need at least 3 {what} to form three partitions, got {n}")
    n_test = max(1, _round_half_up(DEFAULT_TEST_FRAC * n))
    return max(1, _round_half_up(DEFAULT_VAL_FRAC * (n - n_test))), n_test


def spatial_split(task: TaskDataset, grid: BlockGrid, seed: int) -> SplitAssignment:
    """Assign occupied blocks (not units) to train/val/test; unit labels follow
    block membership. Only blocks containing at least one unit participate."""
    block_of = assign_blocks(task.lons, task.lats, grid)
    occupied = np.flatnonzero(np.bincount(block_of))
    n_val, n_test = _partition_counts(len(occupied), "occupied blocks")

    rng = _rng(task.city, task.task, "spatial", seed)
    test_blocks = set(rng.choice(occupied, size=n_test, replace=False).tolist())
    remaining = np.array(sorted(set(occupied.tolist()) - test_blocks), dtype=np.int64)
    val_blocks = set(rng.choice(remaining, size=n_val, replace=False).tolist())
    train_blocks = set(remaining.tolist()) - val_blocks

    labels = np.full(task.n, TRAIN, dtype="<U5")
    labels[np.isin(block_of, list(val_blocks))] = VAL
    labels[np.isin(block_of, list(test_blocks))] = TEST
    return SplitAssignment(
        city=task.city, task=task.task, seed=seed, protocol="spatial",
        unit_ids=task.unit_ids, labels=labels,
        grid_sig=grid.signature(),
        train_blocks=frozenset(train_blocks), val_blocks=frozenset(val_blocks),
        test_blocks=frozenset(test_blocks),
    )


def random_split(task: TaskDataset, seed: int) -> SplitAssignment:
    """Unit-level uniform split with the same fractions and seed derivation."""
    n = task.n
    n_val, n_test = _partition_counts(n, "units")
    rng = _rng(task.city, task.task, "random", seed)
    idx = np.arange(n)
    test_idx = rng.choice(idx, size=n_test, replace=False)
    remaining = np.delete(idx, test_idx)
    val_idx = rng.choice(remaining, size=n_val, replace=False)
    labels = np.full(n, TRAIN, dtype="<U5")
    labels[test_idx] = TEST
    labels[val_idx] = VAL
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
        f"# hash {a.assignment_hash()}",
        "unit_id,label\n",
    ]
    write_atomic(Path(path), "\n".join(lines) + a.rows_text)
