"""Compact low-stretch routing schemes (paper §2, §4).

A routing scheme assigns every node a *routing label* and a *routing
table*; all forwarding decisions are local (current table + packet
header).  Three constructions are reproduced, plus the trivial baseline:

* :mod:`~repro.routing.trivial` — stretch-1 full shortest-path tables
  (the Ω(n log n)-bit strawman of §1).
* :mod:`~repro.routing.ring_scheme` — **Theorem 2.1**: rings over nets
  ``Y_uj = B_u(4Δ/δ2^j) ∩ G_j``, zooming sequences as labels, translation
  functions instead of global ids.
* :mod:`~repro.routing.label_scheme` — **Theorem 4.1**: distance labels
  (Theorem 3.4) as a black box; neighbors are net points at every scale.
* :mod:`~repro.routing.twomode` — **Theorem 4.2 / B.1**: the two-mode
  scheme for graphs with huge aspect ratio.
* :mod:`~repro.routing.metric_overlay` — §4.1 wrappers: the same schemes
  as routing *on metrics* over self-chosen overlay graphs (Table 2).
"""

from repro.routing.base import RouteResult, RoutingScheme, RoutingStats
from repro.routing.trivial import TrivialRouting
from repro.routing.ring_scheme import RingRouting
from repro.routing.label_scheme import LabelRouting
from repro.routing.twomode import TwoModeRouting
from repro.routing.metric_overlay import MetricRouting, overlay_for_metric

__all__ = [
    "RouteResult",
    "RoutingScheme",
    "RoutingStats",
    "TrivialRouting",
    "RingRouting",
    "LabelRouting",
    "TwoModeRouting",
    "MetricRouting",
    "overlay_for_metric",
]
