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

Neighbor sets are computed over arrays: each packing level is held as
its centres and radii, so X_i is one compare of ``row[centres] + radii``
against ``r_{u,i-1}``, and Y_i is one compare of u's row against the
ball radius, masked by the level's net.  :meth:`ScaleStructure.all_neighbors`
returns the union over all scales as one sorted int64 array (the
Theorem 3.2 label); the per-scale accessors return sorted tuples of ints
and memoize them for the constructions that index into them (Theorem
3.4's segments, Theorem 4.2's pointers).

Level-0 convention (a deviation from the paper's text): the paper asserts
the sets ``X_u0`` and ``Y_u0`` coincide across nodes.  To make that
literally true we define ``r_{u,-1} = +inf`` (so X_u0 is all of F_0's
representatives) and ``Y_u0 = G_{j0}`` with the *global* level
``j0 = floor(log2(δ·diam/8))``.  As ``diam/2 <= r_u0 <= diam``, ``j0`` is
u's own level ``floor(log2(δ r_u0/4))`` or one finer, and
``B_u(12 r_u0/δ)`` holds every node; the nets are nested, so the global
Y_u0 contains each node's own Y_u0 and every step of the paper's
correctness argument that uses Y_u0 still holds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro._types import NodeId
from repro.metrics.base import MetricSpace
from repro.metrics.nets import NestedNets
from repro.metrics.packing import EpsMuPacking, distance_rows, eps_mu_packings


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
        # One read of every row serves all the levels' packings and the
        # radii r_ui: the ceil(n/2^i)-th smallest distance from u, the
        # rule of MetricSpace.rui.
        rows = distance_rows(metric)
        self.packings: List[EpsMuPacking] = eps_mu_packings(
            metric, [2.0**-i for i in range(self.levels_n)], rows=rows
        )
        ranks = [int(np.ceil(metric.n / float(2**i))) - 1 for i in range(self.levels_n)]
        self._radii = np.partition(rows, ranks, axis=1)[:, ranks]
        del rows
        # Each packing level as (centres h_B, radii) arrays.
        self._reps: List[Tuple[np.ndarray, np.ndarray]] = [
            (
                np.array([ball.center for ball in packing.balls], dtype=np.int64),
                np.array([ball.radius for ball in packing.balls], dtype=float),
            )
            for packing in self.packings
        ]
        self._net_masks: Dict[int, np.ndarray] = {}
        # Global level-0 Y set (see module docstring).
        self._y0_level = self.net_level(self.delta * self.diameter / 8.0)
        self._x_cache: Dict[Tuple[NodeId, int], Tuple[NodeId, ...]] = {}
        self._y_cache: Dict[Tuple[NodeId, int], Tuple[NodeId, ...]] = {}

    # -- scale helpers ---------------------------------------------------

    def rui(self, u: NodeId, i: int) -> float:
        """``r_ui = r_u(2^-i)`` for a scale ``0 <= i < levels_n``."""
        return float(self._radii[u, i])

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

    # -- neighbor sets -----------------------------------------------------

    def _net_mask(self, level: int) -> np.ndarray:
        """Membership of ``G_level`` as a boolean array over the nodes."""
        mask = self._net_masks.get(level)
        if mask is None:
            mask = np.zeros(self.metric.n, dtype=bool)
            mask[self.nets.net_array(level)] = True
            self._net_masks[level] = mask
        return mask

    def _x_array(self, row: np.ndarray, u: NodeId, i: int) -> np.ndarray:
        """The X_i-neighbors of u (``row`` is u's distance row)."""
        centres, radii = self._reps[i]
        return centres[row[centres] + radii <= self.r_prev(u, i)]

    def _y_mask(self, row: np.ndarray, u: NodeId, i: int) -> np.ndarray:
        """The Y_i-neighbors of u as a boolean array (read-only)."""
        level = self.y_level(u, i)
        if i == 0:
            return self._net_mask(level)
        radius = self.y_ball_factor * self.rui(u, i) / self.delta
        return self._net_mask(level) & (row <= radius)

    def x_neighbors(self, u: NodeId, i: int) -> Tuple[NodeId, ...]:
        """X_i-neighbors: reachable packed-ball representatives (Thm 3.2)."""
        key = (u, i)
        if key not in self._x_cache:
            row = self.metric.distances_from(u)
            self._x_cache[key] = tuple(np.unique(self._x_array(row, u, i)).tolist())
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
            row = self.metric.distances_from(u)
            self._y_cache[key] = tuple(np.flatnonzero(self._y_mask(row, u, i)).tolist())
        return self._y_cache[key]

    def neighbors(self, u: NodeId, i: int) -> Tuple[NodeId, ...]:
        """``N(i) = X_ui ∪ Y_ui`` (Theorem 3.4's notation)."""
        return tuple(sorted(set(self.x_neighbors(u, i)) | set(self.y_neighbors(u, i))))

    def all_neighbors(self, u: NodeId) -> np.ndarray:
        """All X- and Y-neighbors of u across scales, as one sorted int64
        array (not memoized: the Theorem 3.2 label reads it once)."""
        row = self.metric.distances_from(u)
        mark = np.zeros(self.metric.n, dtype=bool)
        for i in range(self.levels_n):
            mark[self._x_array(row, u, i)] = True
            mark |= self._y_mask(row, u, i)
        return np.flatnonzero(mark).astype(np.int64, copy=False)

    # -- zooming sequence --------------------------------------------------

    def zoom_node(self, u: NodeId, i: int) -> NodeId:
        """``f_ui``: a net point of ``G_{floor(log2(r_ui/4))}`` within
        ``r_ui/4`` of u (possibly u itself)."""
        level = self.net_level(self.rui(u, i) / 4.0)
        return self.nets.nearest_member(level, u)

    def zooming_sequence(self, u: NodeId) -> Tuple[NodeId, ...]:
        """``f_u = (f_u0, ..., f_u,L_n-1)``."""
        return tuple(self.zoom_node(u, i) for i in range(self.levels_n))
