"""Dimensionality estimators for finite metrics.

The paper's definitions (§1):

* **Doubling dimension**: the infimum of all α such that every set of
  diameter d can be covered by 2^α sets of diameter d/2.
* **Grid dimension**: the smallest α such that for any ball B,
  ``|B_u(r)| <= 2^α * |B_u(r/2)|``.

For finite metrics we estimate both by direct measurement.  The doubling
dimension estimator uses Lemma 1.1's greedy ball covers: for sampled balls
``B_u(r)`` we greedily cover with radius-``r/2`` balls and report
``max log2(cover size)``.  This upper-bounds the true doubling dimension
within a small additive constant (covering sets of diameter d by *balls* of
radius d/2 rather than sets of diameter d/2), which is the form every
lemma in the paper actually uses.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro._types import NodeId
from repro.metrics.base import MetricSpace
from repro.rng import SeedLike, ensure_rng


def greedy_ball_cover(
    metric: MetricSpace, nodes: np.ndarray, radius: float
) -> list[NodeId]:
    """Greedily cover ``nodes`` with balls of the given radius (Lemma 1.1).

    Repeatedly selects the first uncovered node (in the order given), adds
    it as a center, and removes every node within ``radius`` of it, one
    :meth:`MetricSpace.distances_from` row per center.  Returns the list of
    centers.  The (ε,µ)-packings run the same scan for many balls at once
    over rows they already hold (:mod:`repro.metrics.packing`).
    """
    remaining = np.asarray(nodes, dtype=int)
    centers: list[NodeId] = []
    while remaining.size:
        center = int(remaining[0])
        centers.append(center)
        remaining = remaining[metric.distances_from(center)[remaining] > radius]
    return centers


def doubling_dimension(
    metric: MetricSpace,
    sample_centers: Optional[int] = None,
    scales_per_center: int = 8,
    seed: SeedLike = 0,
) -> float:
    """Estimate the doubling dimension by measuring greedy cover sizes.

    For each sampled center ``u`` and a geometric range of radii ``r``, the
    ball ``B_u(r)`` (diameter <= 2r) is covered greedily by balls of radius
    ``r/2``; the estimate is ``max log2(cover size)`` over all samples.
    """
    n = metric.n
    if n <= 1:
        return 0.0
    rng = ensure_rng(seed)
    if sample_centers is None or sample_centers >= n:
        centers: Iterable[int] = range(n)
    else:
        centers = rng.choice(n, size=sample_centers, replace=False)

    diameter = metric.diameter()
    min_d = metric.min_distance()
    worst = 1.0
    for u in centers:
        u = int(u)
        radii = np.geomspace(
            max(min_d, diameter / 2**scales_per_center), diameter, scales_per_center
        )
        for r in radii:
            members = metric.ball(u, r)
            if members.size <= 1:
                continue
            cover = greedy_ball_cover(metric, members, r / 2.0)
            worst = max(worst, float(len(cover)))
    return float(np.log2(worst))


def grid_dimension(
    metric: MetricSpace,
    sample_centers: Optional[int] = None,
    scales_per_center: int = 10,
    seed: SeedLike = 0,
) -> float:
    """Estimate the grid (KR) dimension: max log2(|B(u,2r)| / |B(u,r)|).

    On the exponential line this is Θ(log n) while the doubling dimension
    stays O(1) — the separation the paper highlights in §1.
    """
    n = metric.n
    if n <= 1:
        return 0.0
    rng = ensure_rng(seed)
    if sample_centers is None or sample_centers >= n:
        centers: Iterable[int] = range(n)
    else:
        centers = rng.choice(n, size=sample_centers, replace=False)

    diameter = metric.diameter()
    min_d = metric.min_distance()
    worst_ratio = 1.0
    for u in centers:
        u = int(u)
        radii = np.geomspace(min_d, diameter, scales_per_center)
        for r in radii:
            inner = metric.ball_size(u, r)
            outer = metric.ball_size(u, 2 * r)
            if inner >= 1:
                worst_ratio = max(worst_ratio, outer / inner)
    return float(np.log2(worst_ratio))


def aspect_ratio(metric: MetricSpace) -> float:
    """Convenience wrapper for ``metric.aspect_ratio()``."""
    return metric.aspect_ratio()


def lemma_1_2_lower_bound(metric: MetricSpace, alpha: float) -> bool:
    """Check Lemma 1.2: ``1 + log Δ >= (log n) / α``.

    Returns True when the inequality holds for the measured Δ and the given
    dimension bound α (used in tests as a consistency check between the
    estimators).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    delta = metric.aspect_ratio()
    return 1 + np.log2(delta) >= np.log2(metric.n) / alpha
