"""Rings of neighbors — the paper's unifying technique.

"Every node u stores pointers to some nodes called 'neighbors'; these
pointers are partitioned into several 'rings', so that for some increasing
sequence of balls {B_i} around u, the neighbors in the i-th ring lie
inside B_i" (§1).

Two collections recur across all four applications (§1, "The unifying
technique"):

* **cardinality-scaled rings** — ball cardinalities grow exponentially
  (``B_ui`` = smallest ball with ``n/2^i`` nodes) and ring members are
  distributed uniformly over the ball's node set (the X-type neighbors);
* **radius-scaled rings** — ball radii grow exponentially and members are
  distributed "uniformly in the space region", i.e. net points or samples
  w.r.t. a doubling measure (the Y-type neighbors).

This package provides those builders (:mod:`~repro.core.rings`), the one
CSR ring representation they return (:mod:`~repro.core.packed`), and
the join/leave membership patch that churn reads go through
(:mod:`~repro.core.patch`).  The zooming sequences of Theorems 2.1 and
3.4 live with their schemes (``RingRouting`` and ``ScaleStructure``).
"""

from repro.core.packed import PackedRings, exact_capped_rings
from repro.core.patch import CSRPatch, InactiveNode, Membership, PatchStats
from repro.core.rings import cardinality_rings, measure_rings, net_rings

__all__ = [
    "CSRPatch",
    "InactiveNode",
    "Membership",
    "PackedRings",
    "PatchStats",
    "exact_capped_rings",
    "cardinality_rings",
    "measure_rings",
    "net_rings",
]
