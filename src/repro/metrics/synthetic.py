"""Synthetic metric workloads.

These generators supply the instance families the paper reasons about:

* :func:`random_hypercube_metric` / :func:`grid_metric` — constant-dimension
  Euclidean metrics, the canonical doubling metrics and the setting of
  Kleinberg's original small world [30].
* :func:`exponential_line` — the set ``{b^i}`` on the line (§1: "as an
  example of a doubling metric with high grid dimension, consider the set
  {1, 2, 4, ..., 2^n}").  Its aspect ratio is exponential in ``n``, which is
  exactly the regime Theorems 3.4, 4.2 and 5.2 are designed for.
* :func:`uniform_line` — evenly spaced points; a UL-constrained metric
  (ball growth rate bounded above and below), the setting of Theorem 5.4.
* :func:`clustered_metric` / :func:`internet_like_metric` — hierarchically
  clustered point sets with small perturbations, the standard synthetic
  stand-in for Internet latency matrices used by the triangulation line of
  work [33, 50, 57].  (A substitution: we have no production latency
  traces; these metrics have measured doubling dimension in the 2–6 range
  the papers assume and exercise identical code paths.)
* :func:`ring_metric` — points on a circle; low-dimensional, used for
  variety in property tests.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.matrix import DistanceMatrixMetric
from repro.rng import SeedLike, ensure_rng


def random_hypercube_metric(
    n: int, dim: int = 2, seed: SeedLike = None, p: float = 2.0
) -> EuclideanMetric:
    """``n`` points sampled uniformly in the unit cube ``[0, 1]^dim``."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = ensure_rng(seed)
    return EuclideanMetric(rng.random((n, dim)), p=p)


def grid_metric(side: int, dim: int = 2, p: float = 2.0) -> EuclideanMetric:
    """The ``side^dim`` integer grid under the l_p norm.

    The two-dimensional case is Kleinberg's original small-world substrate.
    """
    if side < 1:
        raise ValueError("side must be positive")
    axes = [np.arange(side, dtype=float)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return EuclideanMetric(points, p=p)


def exponential_line(n: int, base: float = 2.0) -> EuclideanMetric:
    """The exponential line ``{base^0, base^1, ..., base^(n-1)}``.

    A doubling metric (dimension O(1)) whose grid dimension and aspect
    ratio are huge: ``Δ ~ base^n``.  :class:`EuclideanMetric` squares
    coordinate differences, so the largest, just under ``base^(n-1)``,
    must square within float64 range: for ``base=2``, ``n <= 512``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    max_exponent = (n - 1) * np.log2(base)
    if 2 * max_exponent >= 1024:
        raise ValueError(
            f"squared distances overflow float64 (need base^(2(n-1)) < 2^1024, "
            f"got exponent {2 * max_exponent:.0f})"
        )
    points = np.power(base, np.arange(n, dtype=float))
    return EuclideanMetric(points[:, None])


def uniform_line(n: int, spacing: float = 1.0) -> EuclideanMetric:
    """Evenly spaced points on a line — a UL-constrained metric."""
    if n < 1:
        raise ValueError("n must be positive")
    return EuclideanMetric((np.arange(n, dtype=float) * spacing)[:, None])


def ring_metric(n: int, radius: float = 1.0) -> EuclideanMetric:
    """``n`` points evenly spaced on a circle of the given radius."""
    if n < 1:
        raise ValueError("n must be positive")
    angles = 2 * np.pi * np.arange(n) / n
    points = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return EuclideanMetric(points)


def clustered_metric(
    n: int,
    clusters: int = 8,
    dim: int = 3,
    spread: float = 0.05,
    seed: SeedLike = None,
) -> EuclideanMetric:
    """Gaussian clusters around uniform centers — a two-scale metric."""
    if n < 1:
        raise ValueError("n must be positive")
    if clusters < 1:
        raise ValueError("clusters must be positive")
    rng = ensure_rng(seed)
    centers = rng.random((clusters, dim))
    assignment = rng.integers(0, clusters, size=n)
    points = centers[assignment] + rng.normal(scale=spread, size=(n, dim))
    return EuclideanMetric(points)


def internet_like_metric(
    n: int,
    tiers: int = 3,
    branching: int = 4,
    dim: int = 3,
    jitter: float = 0.02,
    seed: SeedLike = None,
) -> DistanceMatrixMetric:
    """Hierarchically clustered metric with multiplicative jitter.

    A stand-in for Internet latency matrices: points are placed by a
    ``tiers``-level hierarchy (continent -> ISP -> site), each level
    shrinking the placement scale by ``branching``; pairwise Euclidean
    distances then get independent multiplicative jitter
    ``1 + Uniform(0, jitter)`` applied *symmetrically*, followed by one
    round of Floyd–Warshall-style smoothing to restore the triangle
    inequality (real latency matrices are near-metric, not exact).
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = ensure_rng(seed)
    points = np.zeros((n, dim))
    scale = 1.0
    group = np.zeros(n, dtype=int)
    for _ in range(tiers):
        # Each current group splits into `branching` subgroups with centers
        # drawn at the current scale.
        n_groups = int(group.max()) + 1
        centers = rng.normal(scale=scale, size=(n_groups, branching, dim))
        sub = rng.integers(0, branching, size=n)
        points += centers[group, sub]
        group = group * branching + sub
        scale /= branching
    points += rng.normal(scale=scale, size=(n, dim))

    diff = points[:, None, :] - points[None, :, :]
    matrix = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    noise = 1.0 + jitter * rng.random((n, n))
    noise = np.triu(noise, 1)
    noise = noise + noise.T
    matrix = matrix * np.where(noise == 0, 1.0, noise)
    np.fill_diagonal(matrix, 0.0)

    # Restore the triangle inequality: replace d(i,j) by the shortest path
    # through the jittered matrix (one full Floyd-Warshall pass).
    for k in range(n):
        via_k = matrix[:, k][:, None] + matrix[k, :][None, :]
        np.minimum(matrix, via_k, out=matrix)
    matrix = np.minimum(matrix, matrix.T)
    return DistanceMatrixMetric(matrix)
