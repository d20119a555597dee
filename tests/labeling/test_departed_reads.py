"""Scalar reads of a departed node are refused, as batched reads are.

After ``api.update(fitted, leaves=[7])`` every read that names node 7
raises :class:`~repro.core.patch.InactiveNode`: the triangulation's
``bounds``, ``common_beacons``, ``beacons_of`` and ``estimate``, and
both label schemes' ``estimate`` and ``query`` on the diagonal (7, 7),
which would otherwise answer 0 without looking at a label.  Walks over
all pairs (``worst_ratio``) visit the active ones only.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro import api
from repro.core.patch import InactiveNode

N = 64
GONE = 7


def _departed(scheme: str):
    fitted = api.build(scheme, "hypercube", n=N, seed=0, cache=api.BuildCache())
    api.update(fitted, leaves=[GONE])
    return fitted


@pytest.fixture(scope="module")
def tri():
    return _departed("triangulation")


@pytest.fixture(scope="module")
def beacons():
    return _departed("beacons")


@pytest.mark.parametrize("u, v", [(GONE, 5), (5, GONE)])
def test_triangulation_bounds_refuses_departed_node(tri, u, v):
    with pytest.raises(InactiveNode):
        tri.inner.bounds(u, v)


@pytest.mark.parametrize("u, v", [(GONE, 5), (5, GONE)])
def test_triangulation_common_beacons_refuses_departed_node(tri, u, v):
    with pytest.raises(InactiveNode):
        tri.inner.common_beacons(u, v)


def test_triangulation_beacons_of_refuses_departed_node(tri):
    with pytest.raises(InactiveNode):
        tri.inner.beacons_of(GONE)
    assert GONE not in tri.inner.beacons_of(5)


def test_triangulation_estimate_refuses_departed_diagonal(tri):
    with pytest.raises(InactiveNode):
        tri.inner.estimate(GONE, GONE)
    assert tri.inner.estimate(5, 5) == 0.0


def test_triangulation_query_refuses_departed_diagonal(tri):
    with pytest.raises(InactiveNode):
        tri.query(GONE, GONE)


def test_beacons_estimate_refuses_departed_diagonal(beacons):
    with pytest.raises(InactiveNode):
        beacons.inner.estimate(GONE, GONE)
    assert beacons.inner.estimate(5, 5) == 0.0


def test_beacons_query_refuses_departed_diagonal(beacons):
    with pytest.raises(InactiveNode):
        beacons.query(GONE, GONE)


def test_triangulation_worst_ratio_walks_active_pairs(tri):
    labels = {u: tri.inner.beacons_of(u) for u in range(N) if u != GONE}
    worst = 1.0
    for u, v in combinations(sorted(labels), 2):
        common = labels[u].keys() & labels[v].keys()
        lower = max(abs(labels[u][b] - labels[v][b]) for b in common)
        upper = min(labels[u][b] + labels[v][b] for b in common)
        worst = max(worst, upper / lower)
    assert tri.inner.worst_ratio() == worst
