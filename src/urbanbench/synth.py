"""Synthetic cities: autocorrelated label fields plus matching representations.

This module generates synthetic cities and writes them to disk in the
standard input formats (`write_synth_city`); `cli` runs them, through the
same alignment and evaluate step as loaded data. Fields are Gaussian-smoothed
white noise standardized to mean 0, variance 1; the smoothing scale controls
the spatial autocorrelation length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .align import write_entity_csv, write_erf
from .core import (
    LABEL_KINDS,
    MAX_CLASSES,
    EntitySetSupport,
    RasterSupport,
    Rect,
    Representation,
    TaskDataset,
    ValidationError,
    only_keys,
    read_json_object,
    stable_seed,
    write_task_dataset,
)
from .pe_encoder import PE_ENCODER_ID, pe_support

EMBEDDING_KINDS = ("field_value", "field_plus_noise", "coordinate_pe", "sparse_entities")

_TASK_FOR_KIND = {"scalar": "POP", "class": "LUC", "distribution": "AGE"}
SMOOTHING_TAPS_MAX = 2**30  # kernel taps a config's fields may cost: about 1 s of numpy on one core


@dataclass(frozen=True)
class SynthConfig:
    n: int = 32
    extent: Rect = field(default_factory=lambda: Rect(-0.1, -0.1, 0.1, 0.1))
    length_scale: float = 0.05        # same units as the extent
    noise_sd: float = 0.0
    label_kind: str = "scalar"
    n_classes: int = 4                # C for class labels, K for distributions
    embedding_kind: str = "field_value"
    density: float = 1.0              # sparse_entities keep probability
    dim: int = 4                      # embedding width for field kinds
    seed: int = 0
    city: str = "synth"

    def __post_init__(self):
        # Each field is an n x n float64 grid: n = 2048 is 32 MiB per field.
        if not 8 <= self.n <= 2048:
            raise ValidationError(f"synthetic grid needs 8 <= n <= 2048, got {self.n}")
        if self.length_scale <= 0:
            raise ValidationError("length_scale must be positive")
        if not (0.0 < self.density <= 1.0):
            raise ValidationError("density must be in (0,1]")
        if self.label_kind not in LABEL_KINDS:
            raise ValidationError(f"unknown label kind {self.label_kind!r}")
        if self.embedding_kind not in EMBEDDING_KINDS:
            raise ValidationError(f"unknown embedding kind {self.embedding_kind!r}")
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be >= 0")
        if self.n_classes < 1 or self.dim < 1:
            raise ValidationError("n_classes and dim must be positive")
        if self.label_kind != "scalar" and self.n_classes < 2:
            raise ValidationError(f"{self.label_kind} labels need n_classes >= 2, got {self.n_classes}")
        if self.label_kind == "class" and self.n_classes > MAX_CLASSES:
            raise ValidationError(f"class labels need n_classes <= {MAX_CLASSES}, got {self.n_classes}")
        if not self.extent.nondegenerate:
            raise ValidationError(f"extent needs positive area, got {self.extent}")
        # a field correlated beyond the city is near constant; the kernel pads <= 4n cells a side
        side = min(self.extent.width, self.extent.height)
        if self.length_scale > side:
            raise ValidationError(f"length_scale must be at most the extent's shorter side {side}, "
                                  f"got {self.length_scale}")
        # A field or entity embedding is n x n x dim, distribution labels are
        # n x n x n_classes: 2**24 float64 values is 128 MiB per array.
        widths = {"dim": self.dim if self.embedding_kind != "coordinate_pe" else 0,
                  "n_classes": self.n_classes if self.label_kind == "distribution" else 0}
        width = max(widths, key=widths.get)
        if self.n * self.n * widths[width] > 2**24:
            raise ValidationError(f"synthetic arrays need n * n * {width} <= 2**24, "
                                  f"got {self.n} * {self.n} * {widths[width]}")
        # `gaussian_smooth` does n * n taps per kernel cell and axis: O(n**3) per field at sd = n cells
        taps = sum(2 * int(4.0 * (self.length_scale / (side / self.n)) + 0.5) + 1
                   for side in (self.extent.height, self.extent.width))
        fields = self.n_classes if self.label_kind == "distribution" else 1
        if fields * self.n * self.n * taps > SMOOTHING_TAPS_MAX:
            raise ValidationError(f"synthetic fields need fields * n * n * kernel taps <= 2**30, "
                                  f"got {fields} * {self.n} * {self.n} * {taps}")

    @property
    def task(self) -> str:
        return _TASK_FOR_KIND[self.label_kind]


def _is_number(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v))


_CONFIG_VALUE_CHECKS = {  # SynthConfig field type -> (check of the JSON value, what it must be)
    int: (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    float: (_is_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    Rect: (lambda v: isinstance(v, list) and len(v) == 4 and all(map(_is_number, v)),
           "a list of four numbers"),
}


def read_synth_config(path: str | Path) -> SynthConfig:
    """A SynthConfig from a JSON object of its fields (`extent` as a list of
    four numbers); a bad document, key or value is a ValidationError naming
    the file and the key."""
    path = Path(path)
    default = SynthConfig()
    fields = only_keys(read_json_object(path, "synth config"), SynthConfig.__dataclass_fields__, str(path))
    for key, value in fields.items():
        check, what = _CONFIG_VALUE_CHECKS[type(getattr(default, key))]
        if not check(value):
            raise ValidationError(f"{path}: {key} must be {what}, got {value!r}")
    try:
        if "extent" in fields:
            fields["extent"] = Rect(*fields["extent"])
        return SynthConfig(**fields)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def gaussian_smooth(a: np.ndarray, sigmas: tuple[float, float]) -> np.ndarray:
    """`a` correlated along axis 0, then axis 1, with a Gaussian of sd sigma (cells) cut at
    4 sd and reflect-padded: the taps of `ndimage.gaussian_filter(a, sigmas, mode="reflect")`,
    summed in its order, so the result is bit-identical to it."""
    for axis, sigma in enumerate(sigmas):
        if sigma <= 1e-15:  # as ndimage: the axis is left alone
            continue
        r = int(4.0 * sigma + 0.5)
        w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
        w /= w.sum()
        n = a.shape[axis]
        padded = np.pad(a, [(r, r) if k == axis else (0, 0) for k in range(2)], mode="symmetric")
        tap = lambda k: padded[(slice(None),) * axis + (slice(k, k + n),)]
        a = tap(r) * w[r]  # the centre tap, then each mirrored pair from the outermost in
        for k in range(r):
            a += (tap(k) + tap(2 * r - k)) * w[k]
    return a


def generate_field(extent: Rect, n: int, length_scale: float, seed: int) -> np.ndarray:
    """White noise smoothed by a Gaussian kernel of sd `length_scale` (extent
    units, `gaussian_smooth`), standardized to mean 0 and variance 1."""
    if n < 8:
        raise ValidationError("need n >= 8")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n))
    smooth = gaussian_smooth(noise, (length_scale / (extent.height / n), length_scale / (extent.width / n)))
    return (smooth - smooth.mean()) / smooth.std()


def _quantile_bins(values: np.ndarray, n_classes: int) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(values.size)
    return (ranks * n_classes // values.size).astype(np.int64)


def synth_city(cfg: SynthConfig) -> tuple[TaskDataset, Representation]:
    """Generate one city: task units at cell centers of an n*n grid, labels
    derived from a smooth field, and a representation per embedding_kind."""
    n = cfg.n
    extent = cfg.extent
    field_grid = generate_field(extent, n, cfg.length_scale, stable_seed(cfg.seed, "field", 0))
    dx = extent.width / n
    dy = extent.height / n

    # unit ix + n * iy is the cell in column ix and row iy; x0 + (ix + 0.5) * dx
    # and the rest are the float operations of one unit at a time, elementwise
    ix = np.tile(np.arange(n, dtype=np.float64), n)
    iy = np.repeat(np.arange(n, dtype=np.float64), n)
    axis = [f"{i:03d}" for i in range(n)]
    unit_ids = [f"c{r}_{c}" for r in axis for c in axis]
    lons = extent.x0 + (ix + 0.5) * dx
    lats = extent.y0 + (iy + 0.5) * dy
    cells = np.column_stack([extent.x0 + ix * dx, extent.y0 + iy * dy,
                             extent.x0 + (ix + 1) * dx, extent.y0 + (iy + 1) * dy])
    flat = field_grid.reshape(-1)

    if cfg.label_kind == "scalar":
        labels = flat.copy()
    elif cfg.label_kind == "class":
        labels = _quantile_bins(flat, cfg.n_classes)
    else:
        stack = np.stack([flat] + [  # field 0 is the label field drawn above
            generate_field(extent, n, cfg.length_scale, stable_seed(cfg.seed, "field", k)).reshape(-1)
            for k in range(1, cfg.n_classes)
        ], axis=1)
        z = stack - stack.max(axis=1, keepdims=True)
        e = np.exp(z)
        labels = e / e.sum(axis=1, keepdims=True)

    task = TaskDataset(cfg.city, cfg.task, unit_ids, lons, lats, cells, labels, extent,
                       n_classes=cfg.n_classes if cfg.label_kind == "class" else None)

    rng = np.random.default_rng(stable_seed(cfg.seed, "embedding"))
    if cfg.embedding_kind in ("field_value", "field_plus_noise"):
        values = np.repeat(field_grid[:, :, None], cfg.dim, axis=2)
        if cfg.embedding_kind == "field_plus_noise" and cfg.noise_sd > 0:
            values = values + cfg.noise_sd * rng.standard_normal(values.shape)
        support = RasterSupport(x0=extent.x0, y0=extent.y0, dx=dx, dy=dy,
                                ncols=n, nrows=n, values=values.astype(np.float32))
        rep = Representation(model_id=cfg.embedding_kind, support=support)
    elif cfg.embedding_kind == "coordinate_pe":
        rep = Representation(model_id="pe", support=pe_support())
    else:
        keep = rng.random(n * n) < cfg.density
        base = flat[keep][:, None].repeat(cfg.dim, axis=1)
        if cfg.noise_sd > 0:
            base = base + cfg.noise_sd * rng.standard_normal(base.shape)
        support = EntitySetSupport(lons=task.lons[keep], lats=task.lats[keep], vectors=base)
        rep = Representation(model_id="sparse_entities", support=support)
    return task, rep


# A file-backed embedding's support type -> (manifest `support`, file suffix, writer)
_EMBEDDING_FILES = {RasterSupport: ("raster", "erf", write_erf),
                    EntitySetSupport: ("entity_set", "csv", write_entity_csv)}


def write_synth_city(cfg: SynthConfig, out_dir: str | Path) -> dict[str, Path]:
    """Persist a synthetic city in the standard formats plus a manifest, so the instance is
    indistinguishable from loaded real data downstream. Returns the paths written: `task`,
    `manifest` and, unless the model is the coordinate encoder, `embedding`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    task, rep = synth_city(cfg)
    paths = {"task": out_dir / f"{cfg.city}_{task.task}.csv", "manifest": out_dir / "manifest.json"}
    write_task_dataset(paths["task"], task)
    model_entry: dict = {"dim": rep.support.dim}
    if type(rep.support) in _EMBEDDING_FILES:
        model_entry["support"], suffix, write = _EMBEDDING_FILES[type(rep.support)]
        paths["embedding"] = out_dir / f"{rep.model_id}_{cfg.city}.{suffix}"
        write(paths["embedding"], rep.support)
        model_entry["files"] = {cfg.city: paths["embedding"].name}
    else:
        model_entry.update(support="coordinate_encoder", encoder=PE_ENCODER_ID)
    manifest_doc = {"cities": {cfg.city: {"tasks": {task.task: paths["task"].name}}},
                    "models": {rep.model_id: model_entry}}
    paths["manifest"].write_text(json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths
