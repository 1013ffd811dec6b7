"""Model-invariant spatial block splits and random-split diagnostics.

Splits depend only on (task, grid, seed) and never on any representation.
The RNG is PCG64 seeded from a hash of (city, task, protocol, seed), so
assignments are bit-identical across platforms and insertion orders.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import TaskDataset, ValidationError, stable_seed
from .grid import BlockGrid, assign_block

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
    test_frac: float
    val_frac: float
    grid_sig: tuple | None = None
    train_blocks: frozenset[int] | None = None
    val_blocks: frozenset[int] | None = None
    test_blocks: frozenset[int] | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.unit_ids):
            raise ValidationError("labels and unit_ids length mismatch")
        bad = set(np.unique(self.labels)) - {TRAIN, VAL, TEST}
        if bad:
            raise ValidationError(f"unknown split labels {bad}")

    def mask(self, label: str) -> np.ndarray:
        return self.labels == label

    def counts(self) -> dict[str, int]:
        return {s: int(np.count_nonzero(self.labels == s)) for s in (TRAIN, VAL, TEST)}

    def assignment_hash(self) -> str:
        h = hashlib.sha256()
        h.update(
            f"{self.city}|{self.task}|{self.protocol}|{self.seed}|"
            f"{self.test_frac!r}|{self.val_frac!r}|{self.grid_sig}\n".encode()
        )
        for uid, lab in zip(self.unit_ids, self.labels):
            h.update(f"{uid},{lab}\n".encode())
        return h.hexdigest()


def _partition_counts(n: int, test_frac: float, val_frac: float, what: str) -> tuple[int, int, int]:
    if not (0.0 < test_frac < 1.0):
        raise ValidationError(f"test_frac must be in (0,1), got {test_frac}")
    if not (0.0 <= val_frac < 1.0):
        raise ValidationError(f"val_frac must be in [0,1), got {val_frac}")
    if n < 3:
        raise ValidationError(f"need at least 3 {what} to form three partitions, got {n}")
    n_test = max(1, _round_half_up(test_frac * n))
    n_rem = n - n_test
    n_val = max(1, _round_half_up(val_frac * n_rem)) if val_frac > 0 else 0
    n_train = n_rem - n_val
    if n_train < 1:
        raise ValidationError(f"fractions leave no training {what} (n={n})")
    return n_train, n_val, n_test


def spatial_split(
    task: TaskDataset,
    grid: BlockGrid,
    seed: int,
    test_frac: float = DEFAULT_TEST_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
) -> SplitAssignment:
    """Assign occupied blocks (not units) to train/val/test; unit labels follow
    block membership. Only blocks containing at least one unit participate."""
    block_of = np.array([assign_block(u, grid) for u in task.units], dtype=np.int64)
    occupied = np.unique(block_of)
    _, n_val, n_test = _partition_counts(len(occupied), test_frac, val_frac, "occupied blocks")

    rng = _rng(task.city, task.task, "spatial", seed)
    test_blocks = set(rng.choice(occupied, size=n_test, replace=False).tolist())
    remaining = np.array(sorted(set(occupied.tolist()) - test_blocks), dtype=np.int64)
    val_blocks = set(rng.choice(remaining, size=n_val, replace=False).tolist()) if n_val else set()
    train_blocks = set(remaining.tolist()) - val_blocks

    labels = np.empty(task.n, dtype="<U5")
    for i, b in enumerate(block_of):
        labels[i] = TEST if b in test_blocks else VAL if b in val_blocks else TRAIN
    return SplitAssignment(
        city=task.city, task=task.task, seed=seed, protocol="spatial",
        unit_ids=tuple(u.unit_id for u in task.units), labels=labels,
        test_frac=test_frac, val_frac=val_frac, grid_sig=grid.signature(),
        train_blocks=frozenset(train_blocks), val_blocks=frozenset(val_blocks),
        test_blocks=frozenset(test_blocks),
    )


def random_split(
    task: TaskDataset,
    seed: int,
    test_frac: float = DEFAULT_TEST_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
) -> SplitAssignment:
    """Unit-level uniform split with the same fractions and seed derivation."""
    n = task.n
    _, n_val, n_test = _partition_counts(n, test_frac, val_frac, "units")
    rng = _rng(task.city, task.task, "random", seed)
    idx = np.arange(n)
    test_idx = rng.choice(idx, size=n_test, replace=False)
    remaining = np.setdiff1d(idx, test_idx)
    val_idx = rng.choice(remaining, size=n_val, replace=False) if n_val else np.array([], dtype=int)
    labels = np.full(n, TRAIN, dtype="<U5")
    labels[test_idx] = TEST
    labels[val_idx] = VAL
    return SplitAssignment(
        city=task.city, task=task.task, seed=seed, protocol="random",
        unit_ids=tuple(u.unit_id for u in task.units), labels=labels,
        test_frac=test_frac, val_frac=val_frac,
    )


def write_split_csv(path: str | Path, a: SplitAssignment) -> None:
    """Cache file: `unit_id,label` rows under a comment header recording the
    grid params, seed, fractions, and assignment hash."""
    path = Path(path)
    lines = [
        f"# split city={a.city} task={a.task} protocol={a.protocol} seed={a.seed}",
        f"# fractions test={a.test_frac!r} val={a.val_frac!r}",
        f"# grid {a.grid_sig}",
        f"# hash {a.assignment_hash()}",
        "unit_id,label",
    ]
    lines += [f"{uid},{lab}" for uid, lab in zip(a.unit_ids, a.labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
