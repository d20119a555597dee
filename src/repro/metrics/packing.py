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
   radius/8 balls (Lemma 1.1 greedy, in id order), move to the heaviest
   (the first on ties), halve.
2. Take a maximal disjoint subfamily of the candidate balls, scanning in
   node order.

Balls are treated as node sets, and disjointness means set disjointness,
as in the paper's proof.

:func:`eps_mu_packings` builds any number of levels from one read of
each node's row: the rows form one ``(n, n)`` block, and every ``r_u(ε)``
and ball count comes from the same rows sorted
(:meth:`DoublingMeasure.radii_from_rows`).  Per level, the n descents
advance together, a block of at most :data:`_BLOCK_ELEMS` ball members
at a time.  A descent step's greedy covers advance in lockstep too: each
pass takes the first uncovered member of every unfinished cover as its
next centre and drops the members within radius/8 of it, so a pass is a
few NumPy calls over the uncovered members of all the covers.  A cover
ball's mass is read from its count in the sorted rows (the rule of
:meth:`MetricSpace.ball_size`) through
:attr:`DoublingMeasure.count_masses`, the exact sum of that many equal
weights; under a non-uniform measure, :meth:`DoublingMeasure.masses`
sums each ball's mask.  Both give the floats the per-ball sums give, so
the packings equal those of the one-node-at-a-time construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId
from repro.metrics.base import MetricSpace
from repro.metrics.measure import DoublingMeasure, counting_measure

#: Max ball members of one block of descents (the kernel's working set,
#: a few arrays of this many int64 or float64 elements).  On hypercube
#: n = 1000 and 2000 (2-vCPU host) a 2^20 block ran no faster and held
#: 23–26 MB more.
_BLOCK_ELEMS = 1 << 18


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


def distance_rows(metric: MetricSpace) -> np.ndarray:
    """Every node's distance row as one ``(n, n)`` block, read with one
    :meth:`MetricSpace.distances_from` call per node (the floats the
    metric serves)."""
    rows = np.empty((metric.n, metric.n))
    for u in range(metric.n):
        rows[u] = metric.distances_from(u)
    return rows


def _ball_sizes(sorted_rows: np.ndarray, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``|B_c(r)|`` of each (centre, radius) pair as
    :meth:`MetricSpace.ball_size` counts it: the entries ``<= r`` of c's
    sorted row, found by one binary search of all pairs in lockstep."""
    n = sorted_rows.shape[1]
    flat = sorted_rows.ravel()
    last = centres * n - 1  # flat index of the entry before each row
    size = np.zeros(centres.size, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = np.minimum(size + step, n)
        size = np.where(flat[last + probe] <= radii, probe, size)
        step >>= 1
    return size


def _ball_masses(
    mu: DoublingMeasure,
    rows: np.ndarray,
    sorted_rows: np.ndarray,
    centres: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """``µ(B_c(r))`` of each (centre, radius) pair."""
    table = mu.count_masses
    if table is not None:
        return table[_ball_sizes(sorted_rows, centres, radii)]
    chunk = max(1, _BLOCK_ELEMS // rows.shape[1])
    return np.concatenate([
        mu.masses(rows[centres[k : k + chunk]] <= radii[k : k + chunk, None])
        for k in range(0, centres.size, chunk)
    ])


def _heaviest_nodes(
    mu: DoublingMeasure, rows: np.ndarray, centres: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """The heaviest node (the first on ties) of each ball ``B_c(r)``."""
    inside = rows[centres] <= radii[:, None]
    return np.where(inside, mu.weights, -np.inf).argmax(axis=1)


def _greedy_covers(
    rows: np.ndarray, centres: np.ndarray, radii: np.ndarray, eighths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Lemma 1.1's greedy cover of each ball ``B_c(r)`` by radius-``eighth``
    balls, all covers in lockstep, as ``(ball, centre)`` pairs: pass k adds
    the k-th centre of every cover that has one, so each cover's centres
    keep their greedy (id) order."""
    n = rows.shape[1]
    flat = rows.ravel()
    inside = rows[centres] <= radii[:, None]
    counts = np.count_nonzero(inside, axis=1)
    uncovered = np.flatnonzero(inside) % n  # each ball's members, ball after ball
    ball = np.arange(centres.size)
    balls, chosen = [], []
    while ball.size:
        heads = np.cumsum(counts) - counts
        centre = uncovered[heads]  # the first uncovered member of each ball
        balls.append(ball)
        chosen.append(centre)
        far = np.repeat(centre * n, counts)
        far += uncovered
        far = flat.take(far) > np.repeat(eighths, counts)
        counts = np.add.reduceat(far, heads, dtype=np.intp)
        uncovered = uncovered[far]
        live = counts > 0
        if not live.all():
            ball, counts, eighths = ball[live], counts[live], eighths[live]
    return np.concatenate(balls), np.concatenate(chosen)


def _candidates(
    rows: np.ndarray,
    sorted_rows: np.ndarray,
    mu: DoublingMeasure,
    radii: np.ndarray,
    eps: float,
    min_d: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Appendix A's per-node candidates, every descent in lockstep: for
    each node u, the centre, radius, measure and heaviness of its
    u-zooming ball or heavy node."""
    n = rows.shape[0]
    centre = np.empty(n, dtype=np.intp)
    radius = np.zeros(n)
    measure = np.empty(n)
    heavy = np.zeros(n, dtype=bool)

    def settle_heavy(nodes, cur, rad):
        centre[nodes] = _heaviest_nodes(mu, rows, cur, rad)
        heavy[nodes] = True
        measure[nodes] = mu.weights[centre[nodes]]

    chunk = max(1, _BLOCK_ELEMS // n)
    for start in range(0, n, chunk):
        # Each descent starts from B_u(r_u); r_u may be 0 (a single node
        # can already carry measure eps), and then the first check below
        # stops at the singleton {u}.
        node = np.arange(start, min(n, start + chunk))
        cur, rad = node, radii[node]
        while node.size:
            # "rad < 4 min_d" is the paper's radius/8 < min_d/2 written so
            # it cannot underflow to a never-true comparison when min_d is
            # denormal; rad <= 0 guards the same degenerate regime.  A
            # ball of radius < min distance is a single node, so such a
            # descent ends on the heaviest node of its current ball.
            stop = (rad < 4.0 * min_d) | (rad <= 0.0)
            if stop.any():
                settle_heavy(node[stop], cur[stop], rad[stop])
                node, cur, rad = node[~stop], cur[~stop], rad[~stop]
                continue
            eighth, half = rad / 8.0, rad / 2.0
            ball, cover = _greedy_covers(rows, cur, rad, eighth)
            masses = _ball_masses(mu, rows, sorted_rows, cover, eighth[ball])
            # The heaviest cover ball of each descent (the first on ties):
            # lexsort is stable, so equal masses keep the cover order.
            order = np.lexsort((-masses, ball))
            best = order[np.r_[True, ball[order[1:]] != ball[order[:-1]]]]
            best_centre, best_mass = cover[best], masses[best]
            zoom = _ball_masses(mu, rows, sorted_rows, best_centre, half) <= eps
            done = node[zoom]
            centre[done], radius[done] = best_centre[zoom], eighth[zoom]
            measure[done] = best_mass[zoom]
            # Float halving can stall (an infinite radius); such a descent
            # falls back to the heaviest node of its current ball.
            stall = ~zoom & (half >= rad)
            if stall.any():
                settle_heavy(node[stall], cur[stall], rad[stall])
            go = ~zoom & ~stall
            node, cur, rad = node[go], best_centre[go], half[go]
    return centre, radius, measure, heavy


def eps_mu_packings(
    metric: MetricSpace,
    epsilons: Sequence[float],
    mu: Optional[DoublingMeasure] = None,
    rows: Optional[np.ndarray] = None,
) -> List[EpsMuPacking]:
    """An (ε,µ)-packing (Lemma 3.1 / A.1) for each ε of ``epsilons``.

    ``mu`` defaults to the normalized counting measure, which is what
    Theorem 3.2 uses ("we will use (ε,µ)-packings such that µ is the
    normalized counting measure").  ``rows`` is :func:`distance_rows` of
    the metric, for a caller that reads other facts from the same block;
    without it the rows are read here, once each.
    """
    for eps in epsilons:
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
    if mu is None:
        mu = counting_measure(metric)
    if rows is None:
        rows = distance_rows(metric)
    sorted_rows, radii = mu.radii_from_rows(rows, epsilons)
    min_d = metric.min_distance()
    packings = []
    for eps, level_radii in zip(epsilons, radii):
        centre, radius, measure, heavy = _candidates(
            rows, sorted_rows, mu, level_radii, eps, min_d
        )
        # The maximal disjoint subfamily, scanning the candidates in node
        # order.  Many nodes yield the same ball; a repeat overlaps either
        # its first copy or what that copy overlapped, so each (centre,
        # radius) is weighed once.
        used = np.zeros(metric.n, dtype=bool)
        seen = set()
        balls = []
        for u, key in enumerate(zip(centre.tolist(), radius.tolist())):
            if key in seen:
                continue
            seen.add(key)
            c, r = key
            members = np.array([c]) if heavy[u] else np.flatnonzero(rows[c] <= r)
            if not used[members].any():
                used[members] = True
                balls.append(PackedBall(c, r, tuple(members.tolist()), float(measure[u])))
        packings.append(EpsMuPacking(metric, eps, balls))
    return packings


def eps_mu_packing(
    metric: MetricSpace, eps: float, mu: Optional[DoublingMeasure] = None
) -> EpsMuPacking:
    """One level of :func:`eps_mu_packings`."""
    return eps_mu_packings(metric, [eps], mu)[0]
