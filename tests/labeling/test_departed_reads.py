"""Scalar reads of a departed node are refused, as batched reads are.

After ``api.update(fitted, leaves=[7])`` every read that names node 7
raises :class:`~repro.core.patch.InactiveNode`: the triangulation's
``bounds``, ``common_beacons``, ``beacons_of`` and ``estimate``, and
both label schemes' ``estimate`` and ``query`` on the diagonal (7, 7),
which would otherwise answer 0 without looking at a label.  Walks over
all pairs (``worst_ratio``, and the beacons' ``epsilon_for_delta``)
visit the active ones only, over the labels reads serve.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
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


def test_beacon_quality_walks_read_the_active_pairs_served():
    """Beacon 0 leaves and no merge follows: ``epsilon_for_delta`` and
    ``worst_ratio`` must read the labels reads serve (without beacon 0's
    column) over the active pairs only, as ``bounds_many`` does."""
    fitted = api.build("beacons", "hypercube", n=N, seed=0, cache=api.BuildCache())
    inner = fitted.inner
    beacon = int(inner.beacons[0])
    api.update(fitted, leaves=[beacon])
    assert inner.pending_patch_stats().pending_leaves == 1  # no merge
    us, vs = np.array([p for p in combinations(range(N), 2) if beacon not in p]).T
    lower, upper = inner.bounds_many(us, vs)
    delta = 0.3
    failing = (lower <= 0) | (upper > (1 + delta) * lower)
    assert inner.epsilon_for_delta(delta) == np.count_nonzero(failing) / us.size
    expected = float("inf") if (lower <= 0).any() else max(1.0, float((upper / lower).max()))
    assert inner.worst_ratio() == expected


def test_beacon_quality_walks_with_every_beacon_gone():
    fitted = api.build("beacons", "hypercube", n=N, seed=0, cache=api.BuildCache())
    inner = fitted.inner
    gone = inner.beacons.tolist()
    api.update(fitted, leaves=gone)
    rest = np.setdiff1d(np.arange(N), gone)
    lower, upper = inner.bounds_many(rest[:-1], rest[1:])
    assert (lower == 0).all() and np.isinf(upper).all()
    assert inner.epsilon_for_delta(0.3) == 1.0
    assert inner.worst_ratio() == float("inf")
