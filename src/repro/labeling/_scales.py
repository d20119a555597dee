"""Shared scale structure for the §3 constructions (and Theorem 4.2).

Theorems 3.2, 3.4 and 4.2/B.1 all build on the same skeleton:

* ``L_n = ceil(log2 n)`` cardinality scales ``i`` with radii
  ``r_ui = r_u(2^-i)`` (smallest ball around u holding >= n/2^i nodes);
* a nested hierarchy of 2^j-nets ``G_j`` (scaled by the metric's minimum
  distance, so ``G_0`` contains every node);
* per-scale (2^-i, µ)-packings ``F_i`` with µ the counting measure;
* **X_i-neighbors** of u: packed-ball representatives ``h_B``, ``B ∈ F_i``
  with ``d(u, h_B) + radius(B) <= r_{u,i-1}`` (the strengthened Appendix-B
  form of "B ⊂ B_{u,i-1}");
* **Y_i-neighbors** of u: net points of ``G_{j}`` with
  ``j = max(0, floor(log2(δ r_ui / 4)))`` inside ``B_u(12 r_ui / δ)``;
* the **zooming sequence** ``f_ui ∈ G_l``, ``l = floor(log2(r_ui/4))``,
  within ``r_ui/4`` of u.

Level-0 convention (documented deviation): the paper asserts the sets
``X_u0`` and ``Y_u0`` coincide across nodes; to make that literally true we
define ``r_{u,-1} = +inf`` (so X_u0 is all of F_0's representatives) and
``Y_u0 = G_{j0}`` with the *global* level ``j0 = floor(log2(δ·diam/8))``
(one level finer than the per-node value, which keeps every step of the
paper's correctness argument valid — see DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple


from repro._types import NodeId
from repro.metrics.base import MetricSpace
from repro.metrics.nets import NestedNets
from repro.metrics.packing import EpsMuPacking, eps_mu_packing


class ScaleStructure:
    """Nets, packings and the X/Y/zooming vocabulary of §3."""

    def __init__(
        self,
        metric: MetricSpace,
        delta: float,
        y_ball_factor: float = 12.0,
    ) -> None:
        """``y_ball_factor`` is the paper's constant 12 in the Y-ring ball
        radius ``12 r_ui / δ``; the ablation benches sweep it to show how
        much of the order is theory-constant slack at laptop n."""
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        if y_ball_factor <= 0:
            raise ValueError("y_ball_factor must be positive")
        self.metric = metric
        self.delta = delta
        self.y_ball_factor = y_ball_factor
        self.base = metric.min_distance()
        self.diameter = metric.diameter()
        self.levels_n = max(1, int(math.ceil(math.log2(max(2, metric.n)))))
        net_levels = metric.log_aspect_ratio() + 4
        self.nets = NestedNets(metric, levels=net_levels, base_radius=self.base)
        self.packings: List[EpsMuPacking] = [
            eps_mu_packing(metric, 2.0**-i) for i in range(self.levels_n)
        ]
        # Global level-0 Y set (see module docstring).
        self._y0_level = self.net_level(self.delta * self.diameter / 8.0)
        self._rui_cache: Dict[Tuple[NodeId, int], float] = {}
        self._x_cache: Dict[Tuple[NodeId, int], Tuple[NodeId, ...]] = {}
        self._y_cache: Dict[Tuple[NodeId, int], Tuple[NodeId, ...]] = {}

    # -- scale helpers ---------------------------------------------------

    def rui(self, u: NodeId, i: int) -> float:
        key = (u, i)
        if key not in self._rui_cache:
            self._rui_cache[key] = self.metric.rui(u, i)
        return self._rui_cache[key]

    def r_prev(self, u: NodeId, i: int) -> float:
        """``r_{u,i-1}``, with the ``i = 0`` convention of +inf (2·diam)."""
        if i == 0:
            return 2.0 * self.diameter + self.base
        return self.rui(u, i - 1)

    def net_level(self, radius: float) -> int:
        """The net level whose scale is ~radius: clamp(floor(log2(r/base)))."""
        if radius <= self.base:
            return 0
        level = int(math.floor(math.log2(radius / self.base)))
        return max(0, min(self.nets.levels - 1, level))

    def net_scale(self, level: int) -> float:
        """Radius of the level's net."""
        return self.nets.radius_of(level)

    # -- neighbor sets -----------------------------------------------------

    def x_neighbors(self, u: NodeId, i: int) -> Tuple[NodeId, ...]:
        """X_i-neighbors: reachable packed-ball representatives (Thm 3.2)."""
        key = (u, i)
        if key not in self._x_cache:
            bound = self.r_prev(u, i)
            row = self.metric.distances_from(u)
            reps = [
                ball.center
                for ball in self.packings[i]
                if float(row[ball.center]) + ball.radius <= bound
            ]
            self._x_cache[key] = tuple(sorted(set(reps)))
        return self._x_cache[key]

    def nearest_x_neighbor(self, u: NodeId, i: int) -> NodeId | None:
        """The paper's ``x_ui`` — the nearest X_i-neighbor, if any."""
        xs = self.x_neighbors(u, i)
        if not xs:
            return None
        row = self.metric.distances_from(u)
        return min(xs, key=lambda w: float(row[w]))

    def y_level(self, u: NodeId, i: int) -> int:
        """Net level of the Y_i ring: j = max(0, floor(log2(δ r_ui / 4)))."""
        if i == 0:
            return self._y0_level
        return self.net_level(self.delta * self.rui(u, i) / 4.0)

    def y_neighbors(self, u: NodeId, i: int) -> Tuple[NodeId, ...]:
        """Y_i-neighbors: ``B_u(12 r_ui / δ) ∩ G_{y_level}`` (Thm 3.2)."""
        key = (u, i)
        if key not in self._y_cache:
            level = self.y_level(u, i)
            if i == 0:
                members = tuple(int(x) for x in self.nets.net(level))
            else:
                radius = self.y_ball_factor * self.rui(u, i) / self.delta
                members = tuple(
                    int(x) for x in self.nets.members_in_ball(level, u, radius)
                )
            self._y_cache[key] = tuple(sorted(members))
        return self._y_cache[key]

    def neighbors(self, u: NodeId, i: int) -> Tuple[NodeId, ...]:
        """``N(i) = X_ui ∪ Y_ui`` (Theorem 3.4's notation)."""
        return tuple(sorted(set(self.x_neighbors(u, i)) | set(self.y_neighbors(u, i))))

    def all_neighbors(self, u: NodeId) -> Tuple[NodeId, ...]:
        """All X- and Y-neighbors of u across scales."""
        out: set[NodeId] = set()
        for i in range(self.levels_n):
            out.update(self.x_neighbors(u, i))
            out.update(self.y_neighbors(u, i))
        return tuple(sorted(out))

    # -- zooming sequence --------------------------------------------------

    def zoom_node(self, u: NodeId, i: int) -> NodeId:
        """``f_ui``: a net point of ``G_{floor(log2(r_ui/4))}`` within
        ``r_ui/4`` of u (possibly u itself)."""
        level = self.net_level(self.rui(u, i) / 4.0)
        return self.nets.nearest_member(level, u)

    def zooming_sequence(self, u: NodeId) -> Tuple[NodeId, ...]:
        """``f_u = (f_u0, ..., f_u,L_n-1)``."""
        return tuple(self.zoom_node(u, i) for i in range(self.levels_n))
