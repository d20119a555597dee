"""Doubling measures (paper §1.1, Theorem 1.3).

A measure µ is *s-doubling* if ``µ(B_u(r)) <= s * µ(B_u(r/2))`` for every
ball.  Theorem 1.3 ([55, 58, 39, 44]) guarantees every metric of doubling
dimension α carries a 2^α-doubling measure, constructible in
``O(2^O(α) n log n)``.

We implement the net-tree mass-splitting construction in the spirit of
Har-Peled & Mendel [44]: build the nested hierarchy of 2^j-nets from the
minimum distance up to the diameter, link each net point to its nearest
coarser-level net point (its *parent*; every coarser point is its own
parent since the nets are nested), and push unit mass from the single root
down, splitting each point's mass equally among its children.  The leaf
masses (every node appears at the finest level) form the measure.

Each parent has at most ``2^O(α)`` children (Lemma 1.4), so the measure
shrinks by at most a ``2^O(α)`` factor per scale — the intuition behind the
doubling property, which tests verify empirically
(:meth:`DoublingMeasure.doubling_constant`).

The canonical example from the paper: on the exponential line
``{2^i : i ∈ [n]}`` the doubling measure is ``µ(2^i) = 2^(i-n)`` — the
counting measure is *not* doubling there, which is why the small-world
constructions of §5 sample long-range contacts with respect to µ rather
than uniformly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro._types import NodeId
from repro.metrics.base import MetricSpace
from repro.metrics.nets import NestedNets
from repro.rng import SeedLike, ensure_rng

#: Max elements per stacked block of distance rows (~8 MB of float64).
_BLOCK_ELEMS = 1 << 20


class DoublingMeasure:
    """A probability measure on the nodes of a metric space."""

    def __init__(self, metric: MetricSpace, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (metric.n,):
            raise ValueError(
                f"weights must have shape ({metric.n},), got {weights.shape}"
            )
        if np.any(weights <= 0):
            raise ValueError("a doubling measure must be strictly positive")
        self.metric = metric
        self.weights = weights / weights.sum()

    def mass(self, nodes: np.ndarray) -> float:
        """µ(S) for a set of node ids."""
        return float(self.weights[np.asarray(nodes, dtype=int)].sum())

    def ball_mass(self, u: NodeId, r: float) -> float:
        """µ(B_u(r)) for the closed ball."""
        return self.mass(self.metric.ball(u, r))

    def radius_for_mass(self, u: NodeId, eps: float) -> float:
        """The paper's ``r_u(eps)`` generalized to µ: smallest radius whose
        closed ball has measure at least ``eps``."""
        row = self.metric.distances_from(u)
        order = np.argsort(row, kind="stable")
        return float(row[order[_mass_rank(self.weights[order], eps)]])

    def radii_for_mass(self, eps: float) -> np.ndarray:
        """:meth:`radius_for_mass` of every node, in id order.

        Under equal weights the cumulative mass in nearest-first order is
        the same from every node, so ``r_u(eps)`` is one order statistic
        of every row: one partition per block of rows replaces a sort of
        each row.
        """
        n = self.metric.n
        if self.count_masses is None:
            return np.array([self.radius_for_mass(u, eps) for u in range(n)])
        rank = _mass_rank(self.weights, eps)
        out = np.empty(n)
        chunk = max(1, _BLOCK_ELEMS // n)
        for start in range(0, n, chunk):
            rows = [self.metric.distances_from(u) for u in range(start, min(n, start + chunk))]
            out[start : start + len(rows)] = np.partition(rows, rank, axis=1)[:, rank]
        return out

    @cached_property
    def count_masses(self) -> Optional[np.ndarray]:
        """``table[k]``: µ of any k nodes, when every node weighs the same.

        Each entry is the sum ``weights[members].sum()`` gives for k
        members (equal summands, so it depends on k alone), so a ball's
        mass follows exactly from its count.  None when the weights
        differ, as for :func:`doubling_measure`.
        """
        weights = self.weights
        if not np.all(weights == weights[0]):
            return None
        return np.array([weights[:k].sum() for k in range(weights.size + 1)])

    def masses(self, inside: np.ndarray) -> np.ndarray:
        """µ of the node set each row of a boolean ``(m, n)`` block marks,
        equal to :meth:`mass` of each set: from counts under equal
        weights, one sum per row otherwise."""
        table = self.count_masses
        if table is not None:
            return table[np.count_nonzero(inside, axis=1)]
        return np.array([self.weights[row].sum() for row in inside])

    def sample_from_ball(
        self, u: NodeId, r: float, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` i.i.d. nodes from ``B_u(r)`` with probability
        proportional to µ (the §5 "Y-type neighbor" sampling primitive)."""
        members = self.metric.ball(u, r)
        if members.size == 0:
            raise ValueError(f"ball B_{u}({r}) is empty")
        w = self.weights[members]
        return rng.choice(members, size=count, replace=True, p=w / w.sum())

    def doubling_constant(
        self, sample_centers: int = 64, scales: int = 10, seed: SeedLike = 0
    ) -> float:
        """Empirical s: max over sampled balls of µ(B_u(r)) / µ(B_u(r/2))."""
        metric = self.metric
        rng = ensure_rng(seed)
        n = metric.n
        centers = (
            range(n)
            if sample_centers >= n
            else rng.choice(n, size=sample_centers, replace=False)
        )
        radii = np.geomspace(metric.min_distance(), metric.diameter(), scales)
        worst = 1.0
        for u in centers:
            u = int(u)
            for r in radii:
                num = self.ball_mass(u, r)
                den = self.ball_mass(u, r / 2.0)
                worst = max(worst, num / den)
        return worst


def _mass_rank(ordered_weights: np.ndarray, eps: float) -> int:
    """Position, in nearest-first order, of the node at which the
    cumulative mass first reaches ``eps`` (the last node if it never
    does)."""
    cum = np.cumsum(ordered_weights)
    idx = int(np.searchsorted(cum, eps - 1e-15, side="left"))
    return min(idx, cum.size - 1)


def counting_measure(metric: MetricSpace) -> DoublingMeasure:
    """The normalized counting measure µ(S) = |S| / n.

    Doubling exactly when the metric is UL-constrained; used by Theorem 3.2
    and as the ablation baseline against the true doubling measure.
    """
    return DoublingMeasure(metric, np.ones(metric.n))


def doubling_measure(
    metric: MetricSpace, nets: Optional[NestedNets] = None
) -> DoublingMeasure:
    """Construct a doubling measure by net-tree mass splitting (Thm 1.3)."""
    n = metric.n
    if n == 1:
        return DoublingMeasure(metric, np.ones(1))

    if nets is None:
        min_d = metric.min_distance()
        levels = int(np.ceil(np.log2(metric.diameter() / min_d))) + 2
        nets = NestedNets(metric, levels=levels, base_radius=min_d)

    top = nets.levels - 1
    # Masses at the top level: split evenly among the (usually single) roots.
    roots = nets.net(top)
    mass: Dict[NodeId, float] = {v: 1.0 / len(roots) for v in roots}

    for j in range(top - 1, -1, -1):
        child_level = nets.net_array(j)
        parent_level = nets.net_array(j + 1)
        # Assign each child its nearest parent; nested nets ensure each
        # parent is its own child at distance 0.
        children_of: Dict[NodeId, list[NodeId]] = {int(p): [] for p in parent_level}
        for c in child_level:
            row = metric.distances_from(int(c))
            p = int(parent_level[np.argmin(row[parent_level])])
            children_of[p].append(int(c))
        new_mass: Dict[NodeId, float] = {}
        for p, kids in children_of.items():
            share = mass[p] / len(kids)
            for c in kids:
                new_mass[c] = new_mass.get(c, 0.0) + share
        mass = new_mass

    weights = np.zeros(n)
    for v, m in mass.items():
        weights[v] = m
    if np.any(weights <= 0):
        # The finest net must contain every node (its radius is the minimum
        # distance); a zero here means the hierarchy was built too shallow.
        raise RuntimeError("net hierarchy did not reach all nodes")
    return DoublingMeasure(metric, weights)
