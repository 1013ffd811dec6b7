"""Spatial-unit-agnostic evaluation harness for urban/geospatial embeddings."""

from .align import AlignedMatrix, coverage
from .core import (
    Manifest,
    Rect,
    Representation,
    TaskDataset,
    TaskUnit,
    ValidationError,
    load_manifest,
    load_task_dataset,
    validate_manifest,
    write_task_dataset,
)
from .grid import BlockGrid, HexGrid, build_block_grid
from .heads import HeadConfig, fit_scaler, gradient_check, predict, train_head
from .metrics import classification_metrics, distribution_metrics, regression_metrics
from .split import SplitAssignment, random_split, spatial_split
from .synth import SynthConfig, generate_field, synth_city

__version__ = "0.1.0"
