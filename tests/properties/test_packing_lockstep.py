"""The lockstep (ε,µ)-packing kernel against the per-node construction.

The reference below is the construction :func:`eps_mu_packings`
replaced: Appendix A's descent run for one node at a time, each greedy
cover reading one metric row per centre (``_candidate_ball`` and the
``greedy_cover_rows`` loop, kept verbatim).  On every level the kernel
must return the same balls, in the same order, with the same float bits.
The draws cover l_1, l_2 and l_inf point sets in one to three
dimensions, integer grids whose distances tie in covers and in masses,
and a random non-uniform measure beside the counting measure.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import NodeId
from repro.metrics import EuclideanMetric
from repro.metrics.base import MetricSpace
from repro.metrics.measure import DoublingMeasure, counting_measure
from repro.metrics.packing import EpsMuPacking, PackedBall, eps_mu_packings


def greedy_cover_rows(
    metric: MetricSpace, nodes: np.ndarray, radius: float
) -> Tuple[list[NodeId], list[np.ndarray]]:
    remaining = np.asarray(nodes, dtype=int)
    centers: list[NodeId] = []
    rows: list[np.ndarray] = []
    while remaining.size:
        center = int(remaining[0])
        row = metric.distances_from(center)
        centers.append(center)
        rows.append(row)
        remaining = remaining[row[remaining] > radius]
    return centers, rows


def _heaviest_node(mu: DoublingMeasure, inside: np.ndarray) -> PackedBall:
    members = np.flatnonzero(inside)
    heavy = int(members[np.argmax(mu.weights[members])])
    return PackedBall(
        center=heavy, radius=0.0, members=(heavy,), measure=float(mu.weights[heavy])
    )


def _candidate_ball(
    metric: MetricSpace, mu: DoublingMeasure, u: NodeId, r_u: float, eps: float
) -> PackedBall:
    min_d = metric.min_distance()

    row, radius = metric.distances_from(u), r_u
    while True:
        if radius < 4.0 * min_d or radius <= 0.0:
            return _heaviest_node(mu, row <= radius)
        eighth = radius / 8.0
        cover, rows = greedy_cover_rows(metric, np.flatnonzero(row <= radius), eighth)
        inside = np.asarray(rows) <= eighth
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
            return _heaviest_node(mu, row <= radius)
        row, radius = rows[best], next_radius


def reference_packing(
    metric: MetricSpace, eps: float, mu: DoublingMeasure
) -> EpsMuPacking:
    """The per-node construction: candidates in node order, deduplicated
    by (centre, radius), then the maximal disjoint scan."""
    candidates: Dict[Tuple[NodeId, float], PackedBall] = {}
    for u in range(metric.n):
        ball = _candidate_ball(metric, mu, u, mu.radius_for_mass(u, eps), eps)
        candidates.setdefault((ball.center, ball.radius), ball)

    chosen: List[PackedBall] = []
    used: set[NodeId] = set()
    for ball in candidates.values():
        if used.isdisjoint(ball.members):
            chosen.append(ball)
            used.update(ball.members)
    return EpsMuPacking(metric, eps, chosen)


@st.composite
def point_sets(draw, max_n=48):
    """Distinct points under l_1, l_2 or l_inf in one to three dimensions:
    either on a 0.01 grid over [0, 10]^dim, or on a small integer grid
    whose distances tie."""
    dim = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.sampled_from([1.0, 2.0, math.inf]))
    side = draw(st.sampled_from([5, 1001]))
    cells = side**dim
    n = draw(st.integers(min_value=1, max_value=min(max_n, cells)))
    flat = draw(st.lists(st.integers(0, cells - 1), min_size=n, max_size=n, unique=True))
    points = np.array(np.unravel_index(flat, (side,) * dim), dtype=float).T
    if side > 5:
        points *= 0.01
    return EuclideanMetric(points, p=p)


@st.composite
def measures(draw, metric):
    """The counting measure, or integer weights 1..4 (ties in mass)."""
    if draw(st.booleans()):
        return counting_measure(metric)
    weights = draw(st.lists(st.integers(1, 4), min_size=metric.n, max_size=metric.n))
    return DoublingMeasure(metric, np.array(weights, dtype=float))


def _bits(packing: EpsMuPacking) -> list:
    """Each ball with its floats as exact bits."""
    return [(int(b.center), float(b.radius).hex(), tuple(map(int, b.members)),
             float(b.measure).hex()) for b in packing.balls]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lockstep_packings_equal_the_per_node_construction(data):
    metric = data.draw(point_sets())
    mu = data.draw(measures(metric))
    # A ScaleStructure's levels 2^-i, plus one drawn level.
    levels = max(1, math.ceil(math.log2(max(2, metric.n))))
    epsilons = [2.0**-i for i in range(levels)]
    epsilons.append(data.draw(st.floats(min_value=1e-3, max_value=1.0)))
    packings = eps_mu_packings(metric, epsilons, mu)
    for eps, packing in zip(epsilons, packings):
        assert packing.eps == eps
        assert _bits(packing) == _bits(reference_packing(metric, eps, mu))


def test_small_blocks_of_descents_equal_the_per_node_construction(monkeypatch):
    """Up to n = 512 a level's descents fit in one block, so the draws
    above never split them; a three-descent block must change no ball."""
    import repro.metrics.packing as packing

    metric = EuclideanMetric(np.random.default_rng(5).random((40, 2)))
    monkeypatch.setattr(packing, "_BLOCK_ELEMS", 3 * metric.n)
    epsilons = [2.0**-i for i in range(6)]
    weights = np.random.default_rng(6).integers(1, 5, size=metric.n)
    for mu in (counting_measure(metric), DoublingMeasure(metric, weights.astype(float))):
        packings = eps_mu_packings(metric, epsilons, mu)
        for eps, packing in zip(epsilons, packings):
            assert _bits(packing) == _bits(reference_packing(metric, eps, mu))
