"""Batched evaluation over query plans.

Two drivers cover the library's evaluation shapes:

* :func:`evaluate_estimator` — anything with a vectorized
  ``estimate_many(us, vs)`` method (triangulations, distance labels,
  oracles).  True distances come from one
  :meth:`~repro.metrics.base.MetricSpace.pairwise` call and the
  estimates from one ``estimate_many`` call; the error aggregation is a
  handful of NumPy reductions, never a Python accumulate.
* :func:`evaluate_routing` — packet simulation per pair (inherently
  sequential hop-by-hop), but pair generation, true-distance lookup and
  stretch/hop aggregation are all vectorized, so no Θ(n²) Python pair
  list is ever materialized.

Both accept any :data:`~repro.engine.plans.PlanLike`: a
:class:`~repro.engine.plans.QueryPlan`, an explicit ``(m, 2)`` array, or
a sequence of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.metrics.base import MetricSpace

from repro.engine.plans import PlanLike, resolve_pairs


@dataclass
class EstimatorStats:
    """Aggregate quality of a distance estimator over a pair set."""

    pairs: int
    evaluated: int  # pairs with positive true distance and finite estimate
    max_relative_error: float
    mean_relative_error: float
    p95_relative_error: float
    max_stretch: float  # max over-estimate ratio est / true
    mean_stretch: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sampled_pairs": self.evaluated,
            "max_relative_error": self.max_relative_error,
            "mean_relative_error": self.mean_relative_error,
            "p95_relative_error": self.p95_relative_error,
            "max_stretch": self.max_stretch,
            "mean_stretch": self.mean_stretch,
        }


def evaluate_estimator(
    estimator: Any,
    metric: MetricSpace,
    plan: PlanLike,
) -> EstimatorStats:
    """Relative-error statistics of ``estimator`` against ``metric``."""
    pairs = resolve_pairs(plan, metric)
    if pairs.shape[0] == 0:
        return EstimatorStats(0, 0, float("inf"), float("inf"), float("inf"),
                              float("inf"), float("inf"))
    true = metric.pairwise(pairs)
    est = np.asarray(estimator.estimate_many(pairs[:, 0], pairs[:, 1]), dtype=float)
    valid = (true > 0) & np.isfinite(est)
    true_v = true[valid]
    est_v = est[valid]
    if true_v.size == 0:
        return EstimatorStats(int(pairs.shape[0]), 0, float("inf"), float("inf"),
                              float("inf"), float("inf"), float("inf"))
    rel = np.abs(est_v - true_v) / true_v
    stretch = est_v / true_v
    return EstimatorStats(
        pairs=int(pairs.shape[0]),
        evaluated=int(true_v.size),
        max_relative_error=float(rel.max()),
        mean_relative_error=float(rel.mean()),
        p95_relative_error=float(np.percentile(rel, 95)),
        max_stretch=float(stretch.max()),
        mean_stretch=float(stretch.mean()),
    )


def evaluate_routing(
    scheme: Any,
    distance_matrix: Optional[np.ndarray],
    plan: PlanLike,
    *,
    metric: Optional[Union[MetricSpace, int]] = None,
    max_hops: Optional[int] = None,
):
    """Route one packet per planned pair and aggregate a RoutingStats.

    ``distance_matrix`` supplies true shortest-path distances for the
    stretch computation; pass ``None`` to take them from one batched
    ``metric.pairwise`` query instead (the lazy, matrix-free backends —
    bit-for-bit equal where both exist).  ``metric`` is otherwise only
    needed for distance-aware plans (stratified); it defaults to the
    scheme's node count.  Returns a
    :class:`repro.routing.base.RoutingStats`.
    """
    from repro.routing.base import RoutingStats  # local: avoids layer cycle

    if distance_matrix is None and not isinstance(metric, MetricSpace):
        raise ValueError(
            "evaluate_routing needs either a distance matrix or a "
            "MetricSpace to take true distances from"
        )
    n = scheme.graph.n
    pairs = resolve_pairs(plan, metric if metric is not None else n)
    m = pairs.shape[0]
    header_bits = np.zeros(m, dtype=np.int64)
    hops = np.zeros(m, dtype=np.int64)
    routed = np.zeros(m, dtype=float)
    reached = np.zeros(m, dtype=bool)
    for i in range(m):
        result = scheme.route(int(pairs[i, 0]), int(pairs[i, 1]), max_hops=max_hops)
        header_bits[i] = result.header_bits
        if result.reached:
            reached[i] = True
            hops[i] = result.hops
            routed[i] = result.length(scheme.graph)

    if distance_matrix is None:
        true = metric.pairwise(pairs)
    else:
        true = distance_matrix[pairs[:, 0], pairs[:, 1]]
    true_r = true[reached]
    stretches = np.where(true_r > 0, routed[reached] / np.where(true_r > 0, true_r, 1.0), 1.0)
    delivered = int(reached.sum())
    return RoutingStats(
        pairs=m,
        delivered=delivered,
        max_stretch=float(stretches.max()) if delivered else float("inf"),
        mean_stretch=float(stretches.mean()) if delivered else float("inf"),
        max_hops=int(hops[reached].max()) if delivered else 0,
        max_header_bits=int(header_bits.max()) if m else 0,
        max_table_bits=scheme.max_table_bits(),
        max_label_bits=scheme.max_label_bits(),
        stretches=[float(s) for s in stretches],
    )
