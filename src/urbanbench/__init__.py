"""Spatial-unit-agnostic evaluation harness for urban/geospatial embeddings."""

__version__ = "0.1.0"
