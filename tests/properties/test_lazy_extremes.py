"""The lazy shortest-path metric's extremes equal the all-rows pass bit for bit.

The lazy ``ShortestPathMetric`` takes its diameter from a pruned
eccentricity sweep that reads a few Dijkstra rows, and its minimum from
the lightest edge.  The reference is the pass the sweep replaced: every
row computed in chunked multi-source blocks, the smallest positive and
the largest entry taken.  Both must agree exactly, including the last
ulp, where the two orientations of a computed distance can differ.

Random graphs cover integer weights 1-3 (ties), floats, weights spanning
10^-3 to 10^3 and decimal weights (0.1 + 0.2 + 0.3 rounds differently
from 0.3 + 0.2 + 0.1), on paths, stars, cycles, grids, random connected
graphs and 2-node graphs, with node ids shuffled so the sweep starts
anywhere.  Three pinned graphs decide the float only through one
safeguard each: the rows read for the far orientation of a near tie, the
slack of that step, and the slack of the stop rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import WeightedGraph
from repro.metrics.graphmetric import ShortestPathMetric

#: edge-weight distributions: name -> strategy of one positive weight
WEIGHTS = {
    "ties": st.integers(1, 3).map(float),
    "floats": st.floats(1e-3, 1.0),
    "decades": st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    "decimals": st.sampled_from([0.1, 0.2, 0.3, 0.7]),
}


def _lattice(side_x: int, side_y: int) -> list:
    return [
        (x * side_y + y, (x + dx) * side_y + y + dy)
        for x in range(side_x)
        for y in range(side_y)
        for dx, dy in ((1, 0), (0, 1))
        if x + dx < side_x and y + dy < side_y
    ]


@st.composite
def weighted_graphs(draw) -> WeightedGraph:
    """A connected weighted graph of a drawn shape and weight law."""
    shape = draw(st.sampled_from(["two-node", "path", "star", "cycle", "grid", "random"]))
    if shape == "two-node":
        n, pairs = 2, [(0, 1)]
    elif shape == "grid":
        side_x, side_y = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        n, pairs = side_x * side_y, _lattice(side_x, side_y)
    else:
        n = draw(st.integers(3, 30))
        if shape == "path":
            pairs = [(i, i + 1) for i in range(n - 1)]
        elif shape == "star":
            pairs = [(0, i) for i in range(1, n)]
        elif shape == "cycle":
            pairs = [(i, (i + 1) % n) for i in range(n)]
        else:
            pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
            pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=n))
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    ids = draw(st.permutations(range(n)))
    graph = WeightedGraph(n)
    for u, v in pairs:
        if u != v:
            graph.add_edge(ids[u], ids[v], draw(weight))
    return graph


def all_rows_extremes(metric: ShortestPathMetric) -> tuple:
    """The pass the sweep replaced: every full row, in chunked blocks."""
    min_d, max_d = np.inf, 0.0
    for start in range(0, metric.n, 7):
        block = metric._dijkstra(np.arange(start, min(metric.n, start + 7)))
        min_d = min(min_d, float(block[block > 0].min()))
        max_d = max(max_d, float(block.max()))
    return min_d, max_d


def lazy_extremes(graph: WeightedGraph) -> tuple:
    metric = ShortestPathMetric(graph, dense=False)
    return (metric.min_distance(), metric.diameter()), all_rows_extremes(metric)


@given(weighted_graphs())
@settings(max_examples=300, deadline=None)
def test_lazy_extremes_equal_the_all_rows_pass(graph):
    got, want = lazy_extremes(graph)
    assert got == want


#: name -> edges.  Each graph was found by a search over small decimal-
#: weight cycles and grids; its float diameter depends on one safeguard.
PINNED = {
    # a 5-cycle: the far orientation of the diameter pair, one ulp
    # longer, sits in the row of a node the stop rule leaves unread
    "near-tie-orientation": [
        (0, 2, 0.3), (0, 4, 0.7), (1, 2, 0.1), (1, 3, 0.7), (3, 4, 0.2),
    ],
    # a 7-cycle: that node's entry is just under the largest one read, so
    # only the slack of the orientation step reads its row
    "orientation-slack": [
        (0, 6, 0.3), (0, 2, 0.1), (1, 4, 0.1), (1, 3, 0.7), (2, 5, 0.2),
        (3, 6, 0.3), (4, 5, 0.2),
    ],
    # a 4×5 grid: 2·d(r, v) is 1.2 for two nodes v, just under the 1.2
    # + 1 ulp read so far, yet they are 1.2 + 2 ulps apart; only the
    # stop rule's slack reads their rows
    "stop-rule-slack": [
        (0, 3, 0.3), (0, 15, 0.2), (0, 16, 0.1), (0, 18, 0.3), (1, 9, 0.2),
        (1, 2, 0.1), (2, 17, 0.2), (2, 19, 0.3), (3, 19, 0.2), (3, 4, 0.3),
        (4, 18, 0.1), (5, 10, 0.3), (5, 8, 0.2), (6, 7, 0.3), (6, 13, 0.3),
        (6, 11, 0.1), (7, 17, 0.3), (7, 14, 0.2), (7, 12, 0.2), (8, 16, 0.1),
        (8, 11, 0.3), (9, 14, 0.1), (9, 17, 0.1), (10, 18, 0.3), (10, 16, 0.3),
        (11, 12, 0.1), (12, 15, 0.3), (12, 16, 0.3), (13, 14, 0.1), (15, 19, 0.3),
        (15, 17, 0.3),
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_near_ties_keep_the_all_rows_float(case):
    edges = PINNED[case]
    graph = WeightedGraph.from_edges(max(max(u, v) for u, v, _ in edges) + 1, edges)
    got, want = lazy_extremes(graph)
    assert got == want
