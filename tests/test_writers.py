"""The block writers write the bytes of the one-row-at-a-time writers in
`reference`: for signed zeros, NaN, infinities, subnormals, float32 vectors
and values repeated across block boundaries; a block formats each distinct
float64 bit pattern once; and the task files of a class and a distribution
task stay pinned by digest."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from urbanbench import core
from urbanbench.align import write_cell_table_csv, write_entity_csv
from urbanbench.core import CellTableSupport, EntitySetSupport, Rect, TaskDataset, write_task_dataset
from urbanbench.grid import HexGrid
from urbanbench.synth import SynthConfig, synth_city

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Values that print unlike their neighbours: signed zeros, the smallest and
# largest subnormals, the smallest normal, and short and long decimals.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               0.1, -0.1, 1 / 3, 0.5, 1.0, -1.0]
NON_FINITE = [math.nan, -math.nan, math.inf, -math.inf]

# In [-1, 1], with few distinct values, so rows repeat them within and across blocks.
unit_values = st.lists(st.sampled_from(EDGE_VALUES) | st.floats(-1.0, 1.0), min_size=1, max_size=6)
any_values = st.lists(st.sampled_from(EDGE_VALUES + NON_FINITE) | st.floats(width=32) | st.floats(),
                      min_size=1, max_size=6)
blocks = st.integers(1, 4)  # rows per block, so that a few rows span several blocks

# Raw float64 bit patterns: both zeros, which compare equal and print apart;
# quiet and signalling NaNs of either sign with several payloads, which all
# print as nan; both infinities; and the extreme subnormals.
EDGE_BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
             0xFFF80000DEADBEEF, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 0x7FF0000000000000,
             0xFFF0000000000000, 0x1, 0x800FFFFFFFFFFFFF]


def _bytes(tmp_path_factory, write, thing, block=core.WRITE_BLOCK_ROWS) -> tuple[bytes, bytes]:
    """What `write` and its reference write for `thing`, with `block` rows per block."""
    base = tmp_path_factory.getbasetemp()
    with mock.patch.object(core, "WRITE_BLOCK_ROWS", block):
        write(base / "new.csv", thing)
    getattr(reference, write.__name__)(base / "reference.csv", thing)
    return (base / "new.csv").read_bytes(), (base / "reference.csv").read_bytes()


def _pick(rng: np.random.Generator, pool: list[float], shape) -> np.ndarray:
    return np.array(pool, dtype=np.float64)[rng.integers(0, len(pool), size=shape)]


@SETTINGS
@given(pool=any_values, n=st.integers(0, 12), dim=st.integers(1, 4), float32=st.booleans(),
       seed=st.integers(0, 2**32 - 1), block=blocks)
def test_entity_writer_writes_reference_bytes(tmp_path_factory, pool, n, dim, float32, seed, block):
    rng = np.random.default_rng(seed)
    vectors = _pick(rng, pool, (n, dim))
    with np.errstate(over="ignore"):
        rep = EntitySetSupport(_pick(rng, pool, n), _pick(rng, pool, n),
                               vectors.astype(np.float32) if float32 else vectors)
    new, ref = _bytes(tmp_path_factory, write_entity_csv, rep, block)
    assert new == ref


@SETTINGS
@given(pool=any_values, cells=st.sets(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=12),
       dim=st.integers(1, 4), float32=st.booleans(), grid=st.booleans(), seed=st.integers(0, 2**32 - 1),
       block=blocks)
def test_cell_table_writer_writes_reference_bytes(tmp_path_factory, pool, cells, dim, float32, grid, seed,
                                                  block):
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        table = {cell: _pick(rng, pool, dim).astype(np.float32 if float32 else np.float64) for cell in cells}
    rep = CellTableSupport(HexGrid(0.25, -0.5) if grid else None, table)
    new, ref = _bytes(tmp_path_factory, write_cell_table_csv, rep, block)
    assert new == ref


@SETTINGS
@given(pool=unit_values, n=st.integers(1, 12), kind=st.sampled_from(["POP", "LUC", "AGE"]),
       cells=st.booleans(), seed=st.integers(0, 2**32 - 1), block=blocks)
def test_task_writer_writes_reference_bytes(tmp_path_factory, pool, n, kind, cells, seed, block):
    rng = np.random.default_rng(seed)
    lons, lats = _pick(rng, pool, n), _pick(rng, pool, n)
    extents = np.full((n, 4), math.nan)
    if cells:  # each unit's point is its cell's (x0, y0) corner, and x1, y1 come from the pool too
        x1, y1 = _pick(rng, pool, (2, n))
        extents = np.column_stack([lons, lats, np.where(x1 > lons, x1, lons + 0.5),
                                   np.where(y1 > lats, y1, lats + 0.5)])
    if kind == "POP":
        labels, n_classes = _pick(rng, pool, n), None
    elif kind == "LUC":
        labels, n_classes = rng.integers(0, 3, size=n), 3
    else:  # two-part distributions, zeros of either sign included
        p = _pick(rng, [0.0, -0.0, 0.25, 0.5, 1.0], n)
        labels, n_classes = np.column_stack([p, 1.0 - p]), None
    ds = TaskDataset("c", kind, [f"u{i}" for i in range(n)], lons, lats, extents, labels,
                     Rect(-1.0, -1.0, 1.5, 1.5), n_classes=n_classes)
    new, ref = _bytes(tmp_path_factory, write_task_dataset, ds, block)
    assert new == ref


def test_writers_at_the_default_block_size(tmp_path_factory):
    # more rows than one block, the edges and vectors repeating across the boundary
    rows = 2 * core.WRITE_BLOCK_ROWS + 3
    task, raster = synth_city(SynthConfig(n=24, embedding_kind="field_plus_noise", noise_sd=0.5, seed=5))
    assert task.n > core.WRITE_BLOCK_ROWS
    vectors = raster.support.values.reshape(-1, raster.support.dim)[:rows]
    vectors = np.concatenate([vectors, vectors])
    ents = EntitySetSupport(np.resize(EDGE_VALUES, len(vectors)),
                            np.resize(EDGE_VALUES + NON_FINITE, len(vectors)), vectors)
    table = CellTableSupport(None, {(i, -i): v for i, v in enumerate(vectors)})
    for write, thing in ((write_task_dataset, task), (write_entity_csv, ents), (write_cell_table_csv, table)):
        new, ref = _bytes(tmp_path_factory, write, thing)
        assert new == ref, write.__name__


@SETTINGS
@given(pool=st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_BITS), min_size=1, max_size=6),
       rows=st.integers(0, 8), cols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fmt_columns_is_fmt_of_each_value(pool, rows, cols, seed):
    # rows drawn from a small pool of raw bit patterns repeat them within and across columns
    rng = np.random.default_rng(seed)
    block = np.array(pool, dtype=np.uint64)[rng.integers(0, len(pool), size=(rows, cols))].view(np.float64)
    assert core._fmt_columns(block) == [[core._fmt(v) for v in col] for col in block.T.tolist()]


@pytest.mark.parametrize("block", [3, core.WRITE_BLOCK_ROWS])
def test_writer_formats_each_bit_pattern_once_per_block(tmp_path_factory, block):
    rng = np.random.default_rng(7)
    bits = np.array(EDGE_BITS + [0x3FF0000000000000, 0xBFB999999999999A], dtype=np.uint64)
    values = bits[rng.integers(0, len(bits), size=(2 * core.WRITE_BLOCK_ROWS + 5, 5))].view(np.float64)
    ents = EntitySetSupport(values[:, 0], values[:, 1], values[:, 2:])
    with mock.patch.object(core, "_fmt", wraps=core._fmt) as fmt:
        new, ref = _bytes(tmp_path_factory, write_entity_csv, ents, block)
    assert new == ref
    distinct = [len(set(values[i:i + block].view(np.uint64).ravel().tolist()))
                for i in range(0, len(values), block)]
    assert fmt.call_count == sum(distinct)
    assert fmt.call_count < values.size


@pytest.mark.parametrize("kind, digest", [
    ("class", "853d7f7003d11ee634f717cd45e8bb444364877c2593a2ff8a306e676f40ae3b"),
    ("distribution", "443d76dc71a7dbdb54594f2637ac152ce010e9efb78f681de6a18337c17bacda"),
])
def test_task_file_pinned(tmp_path, kind, digest):
    # sha256 recorded with the one-row-at-a-time writer; 576 raster cells span three blocks
    task, _ = synth_city(SynthConfig(n=24, extent=Rect(-0.05, -0.05, 0.05, 0.05), length_scale=0.02,
                                     label_kind=kind, n_classes=3, seed=3, city="golden"))
    write_task_dataset(tmp_path / "t.csv", task)
    assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest
