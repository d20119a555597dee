"""(ε,µ)-packings — Lemma 3.1 / Appendix A of the paper.

An (ε,µ)-packing is a family F of *disjoint* balls, each of measure at
least ``ε / 2^O(α)``, such that for every node u some ball
``B_v(r) ∈ F`` satisfies ``d_uv + r <= 6 r_u(ε)`` (the strengthened form
of Lemma A.1 needed by Theorem 4.2).

The construction follows Appendix A exactly:

1. For each node u with ``r = r_u(ε)``, find either a *u-zooming ball*
   (a ball ``B_v(r')`` ⊆ ``B_u(3r)`` with ``µ >= ε/16^α`` whose 4x
   inflation has measure <= ε) or a single *heavy* node of measure >= ε,
   by the iterated cover-and-descend argument: cover the current ball by
   radius/8 balls (Lemma 1.1 greedy), move to the heaviest, halve.
2. Take a maximal disjoint subfamily of the candidate balls, scanning in
   node order.

Balls are treated as node sets, and disjointness means set disjointness,
as in the paper's proof.

The descent works on the distance rows it already holds.  All radii
``r_u(ε)`` come from :meth:`DoublingMeasure.radii_for_mass` (one
partition per block of rows under the counting measure).  Each step
weighs its cover balls with one compare over the rows the greedy cover
read; under equal weights a ball's mass is then a table lookup by its
count (:attr:`DoublingMeasure.count_masses`, the exact sum of that many
equal weights), and under a non-uniform measure one sum per ball.
Neither makes a ``metric.ball`` or ``mu.ball_mass`` call per cover
centre, and both give the floats the per-ball sums give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._types import NodeId
from repro.metrics.base import MetricSpace
from repro.metrics.dimension import greedy_cover_rows
from repro.metrics.measure import DoublingMeasure, counting_measure


@dataclass(frozen=True)
class PackedBall:
    """One ball of an (ε,µ)-packing.

    ``center`` is the node the paper calls ``h_B`` — the fixed
    representative used as an X-neighbor; ``radius`` may be 0 (the heavy
    single-node case of Appendix A).
    """

    center: NodeId
    radius: float
    members: Tuple[NodeId, ...]
    measure: float

    def __contains__(self, node: NodeId) -> bool:
        return node in set(self.members)


class EpsMuPacking:
    """A constructed (ε,µ)-packing with its covering guarantee."""

    def __init__(
        self, metric: MetricSpace, eps: float, balls: List[PackedBall]
    ) -> None:
        self.metric = metric
        self.eps = eps
        self.balls = balls

    def __len__(self) -> int:
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)

    def covering_ball_for(self, u: NodeId) -> Tuple[PackedBall, float]:
        """The ball minimizing ``d(u, center) + radius`` and that value.

        Lemma A.1 guarantees the value is at most ``6 r_u(ε)``.
        """
        row = self.metric.distances_from(u)
        best: Optional[PackedBall] = None
        best_reach = np.inf
        for ball in self.balls:
            reach = float(row[ball.center]) + ball.radius
            if reach < best_reach:
                best, best_reach = ball, reach
        if best is None:
            raise ValueError("empty packing")
        return best, best_reach

    def verify_disjoint(self) -> bool:
        """True iff all member sets are pairwise disjoint."""
        seen: set[NodeId] = set()
        for ball in self.balls:
            for v in ball.members:
                if v in seen:
                    return False
                seen.add(v)
        return True


def _heaviest_node(mu: DoublingMeasure, inside: np.ndarray) -> PackedBall:
    """The radius-0 ball on the heaviest node (the first on ties) of the
    node set ``inside`` marks."""
    members = np.flatnonzero(inside)
    heavy = int(members[np.argmax(mu.weights[members])])
    return PackedBall(
        center=heavy, radius=0.0, members=(heavy,), measure=float(mu.weights[heavy])
    )


def _candidate_ball(
    metric: MetricSpace, mu: DoublingMeasure, u: NodeId, r_u: float, eps: float
) -> PackedBall:
    """Appendix A's per-node candidate: a u-zooming ball or a heavy node.

    Each step weighs its cover balls from the rows the greedy cover
    already read: one compare over the stacked rows, and
    :meth:`DoublingMeasure.masses` turns the marked sets into masses.
    """
    min_d = metric.min_distance()

    # Start from B_u(r_u) itself; r_u may be 0 (a single node can already
    # carry measure eps), in which case the first check below returns the
    # singleton {u} immediately.
    row, radius = metric.distances_from(u), r_u
    while True:
        # "radius < 4 min_d" is the paper's radius/8 < min_d/2 written so
        # it cannot underflow to a never-true comparison when min_d is
        # denormal; radius <= 0 guards the same degenerate regime.
        if radius < 4.0 * min_d or radius <= 0.0:
            # Ball of radius < min distance is a single node.  Descend to
            # the heaviest node of the current ball; by the invariant the
            # current ball has measure >= eps/16^alpha at every step, and
            # the paper's argument shows a heavy *node* (measure >= eps /
            # cover-size) exists here.
            return _heaviest_node(mu, row <= radius)
        eighth = radius / 8.0
        cover, rows = greedy_cover_rows(metric, np.flatnonzero(row <= radius), eighth)
        inside = np.asarray(rows) <= eighth
        # The heaviest cover ball B_v(radius/8) (the first on ties); its
        # measure is at least mu(current ball) / |cover| >= eps / 16^alpha.
        masses = mu.masses(inside)
        best = int(np.argmax(masses))
        if mu.masses(rows[best][None, :] <= radius / 2.0)[0] <= eps:
            return PackedBall(
                center=cover[best],
                radius=eighth,
                members=tuple(np.flatnonzero(inside[best]).tolist()),
                measure=float(masses[best]),
            )
        next_radius = radius / 2.0
        if next_radius >= radius:
            # Float halving stalled (denormal range); fall back to the
            # heaviest single node of the current ball.
            return _heaviest_node(mu, row <= radius)
        row, radius = rows[best], next_radius


def eps_mu_packing(
    metric: MetricSpace, eps: float, mu: Optional[DoublingMeasure] = None
) -> EpsMuPacking:
    """Construct an (ε,µ)-packing (Lemma 3.1 / A.1).

    ``mu`` defaults to the normalized counting measure, which is what
    Theorem 3.2 uses ("we will use (ε,µ)-packings such that µ is the
    normalized counting measure").
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if mu is None:
        mu = counting_measure(metric)

    # Per-node candidates, deduplicated by (center, radius): many nodes
    # yield the same ball and the maximal-disjoint scan only needs each
    # once.  The dict keeps the first-seen (node) order.
    candidates: Dict[Tuple[NodeId, float], PackedBall] = {}
    for u, r_u in enumerate(mu.radii_for_mass(eps).tolist()):
        ball = _candidate_ball(metric, mu, u, r_u, eps)
        candidates.setdefault((ball.center, ball.radius), ball)

    chosen: List[PackedBall] = []
    used: set[NodeId] = set()
    for ball in candidates.values():
        if used.isdisjoint(ball.members):
            chosen.append(ball)
            used.update(ball.members)
    return EpsMuPacking(metric, eps, chosen)
