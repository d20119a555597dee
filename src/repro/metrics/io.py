"""Metric persistence.

Benchmark workloads and externally supplied latency matrices are shared
on disk; loading always returns a validated
:class:`~repro.metrics.matrix.DistanceMatrixMetric`.

Files use the versioned container format of :mod:`repro.serve.container`
(kind ``"metric"``): a JSON header plus 64-byte-aligned raw array
segments, so a reload memory-maps the matrix instead of inflating a zip
archive.  Anything else is rejected with
:class:`~repro.serve.container.ContainerError` (a ``ValueError``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.matrix import DistanceMatrixMetric

PathLike = Union[str, Path]


def save_metric(metric: MetricSpace, path: PathLike) -> str:
    """Persist a metric's distance matrix (and coordinates if Euclidean).

    Writes a versioned container file; returns its content hash.
    """
    from repro.serve.container import write_container

    path = Path(path)
    rows = np.vstack([metric.distances_from(u) for u in range(metric.n)])
    rows = (rows + rows.T) / 2.0  # exact symmetry for the reload validator
    arrays = {"matrix": rows}
    points = getattr(metric, "points", None)
    if points is not None:
        arrays["points"] = np.asarray(points)
    meta = {"n": int(metric.n), "has_points": points is not None}
    return write_container(path, kind="metric", meta=meta, arrays=arrays)


def load_metric(path: PathLike, mmap: bool = True) -> DistanceMatrixMetric:
    """Load a metric saved by :func:`save_metric` (validated on load;
    the file is memory-mapped when ``mmap=True``)."""
    from repro.serve.container import read_container

    container = read_container(path, mmap=mmap)
    if container.kind != "metric" or "matrix" not in container.arrays:
        raise ValueError(f"{path}: not a saved metric (no 'matrix' array)")
    # Copy out of the mapping: the metric owns a mutable matrix.
    return DistanceMatrixMetric(np.array(container.arrays["matrix"]))


def load_points(path: PathLike) -> Optional[np.ndarray]:
    """Coordinates stored alongside the matrix, if any."""
    from repro.serve.container import read_container

    points = read_container(path).arrays.get("points")
    return None if points is None else np.array(points)
