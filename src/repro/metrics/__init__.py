"""Finite metric spaces and the structural tools the paper relies on.

The paper's input is always "a finite metric space or, more generally, an
undirected weighted graph that induces a shortest-paths metric" (§1), with
low *doubling dimension*.  This subpackage provides:

* :class:`~repro.metrics.base.MetricSpace` — the abstract interface every
  algorithm in the library consumes (distances, balls, ``r_u(eps)`` radii,
  aspect ratio).
* Concrete metrics: explicit matrices, Euclidean point sets, and
  graph-induced shortest-path metrics.
* Synthetic workload generators (uniform hypercube, grids, the exponential
  line with aspect ratio exponential in ``n``, clustered "internet-like"
  metrics, UL-constrained metrics).
* The structural machinery of §1.1: :mod:`~repro.metrics.nets` (r-nets and
  nested net hierarchies), :mod:`~repro.metrics.measure` (doubling
  measures, Theorem 1.3), :mod:`~repro.metrics.packing` ((ε,µ)-packings,
  Lemma 3.1 / Appendix A), and :mod:`~repro.metrics.dimension`
  (doubling/grid dimension estimators).
"""

from repro.metrics.base import MetricSpace
from repro.metrics.matrix import DistanceMatrixMetric
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.synthetic import (
    clustered_metric,
    exponential_line,
    grid_metric,
    internet_like_metric,
    random_hypercube_metric,
    ring_metric,
    uniform_line,
)
from repro.metrics.dimension import (
    aspect_ratio,
    doubling_dimension,
    grid_dimension,
)
from repro.metrics.nets import NestedNets, greedy_net
from repro.metrics.measure import DoublingMeasure, doubling_measure
from repro.metrics.packing import EpsMuPacking, PackedBall, eps_mu_packing, eps_mu_packings
from repro.metrics.lowerbound import label_entropy_bits, scale_coded_metric
from repro.metrics.io import load_metric, load_points, save_metric

__all__ = [
    "MetricSpace",
    "DistanceMatrixMetric",
    "EuclideanMetric",
    "ShortestPathMetric",
    "clustered_metric",
    "exponential_line",
    "grid_metric",
    "internet_like_metric",
    "random_hypercube_metric",
    "ring_metric",
    "uniform_line",
    "aspect_ratio",
    "doubling_dimension",
    "grid_dimension",
    "NestedNets",
    "greedy_net",
    "DoublingMeasure",
    "doubling_measure",
    "EpsMuPacking",
    "PackedBall",
    "eps_mu_packing",
    "eps_mu_packings",
    "label_entropy_bits",
    "scale_coded_metric",
    "load_metric",
    "load_points",
    "save_metric",
]
