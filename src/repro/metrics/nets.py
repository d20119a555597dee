"""r-nets and nested net hierarchies (paper §1.1).

An **r-net** on a metric is a set S such that (a) every point is within
distance r of S (covering) and (b) any two points of S are at distance at
least r (packing).  The paper constructs them greedily, optionally seeded
from an existing set of far-apart points — which is exactly what makes the
*nested* hierarchy ``G_log∆ ⊂ ... ⊂ G_1 ⊂ G_0`` of Theorem 3.2 possible:
each coarser net is a valid seed for the next finer one.

Construction is the paper's id-order greedy scan, batched
(:func:`greedy_scan`) and bit-for-bit identical to admitting one node
per distance row:

* **Batch admission.**  Candidates (ids whose distance to the current net
  is >= r) are taken a batch at a time; one small batch-by-batch block
  resolves, *exactly as the sequential scan would*, which batch members
  survive the admissions before them (a member is admitted iff its
  distance to every earlier-admitted batch member is >= r — the only way
  its net-distance can have dropped below r since the batch was formed).
* **Blocked min update.**  Admitted points fold into the running
  net-distance array via ``min`` over (sources x all nodes) blocks of at
  most :data:`_BLOCK_ELEMS` elements.
* **Radius-capped rows.**  The scan only ever compares net-distances
  against r, so any distance known to exceed r may be stored as ``+inf``.
  Metrics exposing ``rows_within(sources, radius)`` (the lazy
  shortest-path backend: Dijkstra with an early cutoff) exploit this —
  each source explores only its r-ball instead of the whole graph.
* **Carried state.**  :class:`NestedNets` seeds each finer level with the
  coarser scan's final net-distance array (values capped at the coarser
  radius are still exact wherever they matter), so a whole hierarchy
  costs one scan's worth of updates.

The ring builders read the finished hierarchy in a single pass
(:meth:`NestedNets.scan`, the hot path of their construction): every
node's distance row is asked once, and it yields that node's ring at
every level as well as its share of every level's nearest members.  A
coarser net is a prefix of a finer one's admission list, so one block
whose columns lead with the finest net serves every level.

Lemma 1.4 (at most ``(4 r'/r)^α`` net points in any radius-r' ball) is what
bounds every ring cardinality in the paper; tests verify it empirically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId
from repro.metrics.base import MetricSpace

#: Max elements per transient distance block (~8 MB of float64), so peak
#: memory stays bounded at any n.
_BLOCK_ELEMS = 1 << 20

#: Candidate batch size for the admission scan.
_ADMIT_BATCH = 256


def _pair_block(metric, heads: np.ndarray, radius: float) -> np.ndarray:
    """The heads-by-heads distance block; entries > radius may be ``+inf``.

    Uses the metric's radius-capped fast path when it has one (the lazy
    graph backend explores only each source's radius-ball); otherwise an
    exact batched gather.  Callers may only use the result through the
    ``value >= radius`` predicate, where the cap is invisible.
    """
    rows_within = getattr(metric, "rows_within", None)
    if rows_within is not None and np.isfinite(radius):
        out = np.empty((heads.size, heads.size))
        chunk = max(1, _BLOCK_ELEMS // max(1, metric.n))
        for start in range(0, heads.size, chunk):
            rows = rows_within(heads[start : start + chunk], radius)
            out[start : start + rows.shape[0]] = rows[:, heads]
        return out
    return metric.distances_between(heads, heads)


def _min_distance_update(
    metric, min_dist: np.ndarray, sources: np.ndarray, radius: float
) -> None:
    """Fold d(source, ·) into ``min_dist`` in place, a source block at a time.

    With a finite ``radius`` a metric exposing ``rows_within`` serves
    radius-capped rows (distances beyond ``radius`` read ``+inf``);
    ``radius=inf`` asks for exact rows.  ``min`` is exact, so the block
    size never changes a bit of the result.
    """
    sources = np.asarray(sources, dtype=np.intp)
    n = min_dist.size
    if sources.size == 0 or n == 0:
        return
    rows_within = getattr(metric, "rows_within", None)
    capped = rows_within is not None and np.isfinite(radius)
    targets = np.arange(n)
    chunk = max(1, _BLOCK_ELEMS // n)
    for start in range(0, sources.size, chunk):
        block = sources[start : start + chunk]
        rows = (
            rows_within(block, radius) if capped
            else metric.distances_between(block, targets)
        )
        np.minimum(min_dist, rows.min(axis=0), out=min_dist)


def greedy_scan(
    metric,
    r: float,
    seed_points: Optional[Sequence[int]] = None,
    min_dist: Optional[np.ndarray] = None,
    batch: int = _ADMIT_BATCH,
) -> Tuple[List[int], np.ndarray]:
    """The batched id-order farthest-point scan; returns ``(net, min_dist)``.

    Identical output to the sequential scan for every ``batch``.  When
    ``min_dist`` is given it must already hold the (possibly capped, at
    some radius >= r) distances to ``seed_points``, e.g. the array a
    coarser :func:`greedy_scan` returned — the seed initialization is
    then skipped.  The returned array holds, for every node, the distance
    to the final net, capped at values >= r (exact below r).
    """
    n = metric.n
    net: List[int] = list(seed_points) if seed_points else []
    if min_dist is None:
        min_dist = np.full(n, np.inf)
        if net:
            _min_distance_update(metric, min_dist, net, r)
    pos = 0
    while pos < n:
        candidates = np.flatnonzero(min_dist[pos:] >= r)
        if candidates.size == 0:
            break
        heads = (pos + candidates[:batch]).astype(np.intp)
        if heads.size == 1:
            admitted = heads
        else:
            # One block among the batch resolves intra-batch conflicts in
            # the exact order the sequential scan would visit them.
            block = _pair_block(metric, heads, r)
            survivors_min = np.full(heads.size, np.inf)
            keep: List[int] = []
            for idx in range(heads.size):
                if survivors_min[idx] >= r:
                    keep.append(idx)
                    np.minimum(survivors_min, block[idx], out=survivors_min)
            admitted = heads[keep]
        net.extend(int(v) for v in admitted)
        pos = int(heads[-1]) + 1
        # Full-span update (not just the unsettled suffix): the returned
        # array must be the capped distance-to-net for *every* node, so it
        # can seed the next finer level of a nested hierarchy.
        _min_distance_update(metric, min_dist, admitted, r)
    return net, min_dist


def greedy_net(
    metric: MetricSpace,
    r: float,
    seed_points: Optional[Sequence[NodeId]] = None,
) -> List[NodeId]:
    """Construct an r-net greedily (paper §1.1).

    Starts from ``seed_points`` (which must be pairwise >= r apart; this is
    the caller's responsibility and holds automatically when seeding from a
    coarser net) and adds any node at distance >= r from all current net
    points until the covering property holds.

    Nodes are scanned in id order, so the construction is deterministic.
    """
    net, _ = greedy_scan(metric, r, seed_points=seed_points)
    return net


def is_r_net(metric: MetricSpace, points: Sequence[NodeId], r: float) -> bool:
    """Check both net properties (covering within r, packing >= r).

    Both checks run on batched distance blocks (chunked so memory stays
    bounded even for nets of size Θ(n)).
    """
    points = np.asarray(list(points), dtype=np.intp)
    if points.size == 0:
        return metric.n == 0
    m = points.size
    min_dist = np.full(metric.n, np.inf)
    _min_distance_update(metric, min_dist, points, np.inf)
    covering = bool(np.all(min_dist <= r * (1 + 1e-9)))
    if not covering:
        return False
    # Packing: every off-diagonal pair of net points at distance >= r.
    chunk = max(1, _BLOCK_ELEMS // m)
    for start in range(0, m, chunk):
        rows = points[start : start + chunk]
        block = metric.distances_between(rows, points)
        block[np.arange(rows.size), start + np.arange(rows.size)] = np.inf
        if bool(np.any(block < r * (1 - 1e-9))):
            return False
    return True


def _fold_min(
    best_d: np.ndarray, best_id: np.ndarray, d: np.ndarray, ids: np.ndarray
) -> None:
    """Fold ``(d, ids)`` into the running ``(best_d, best_id)`` minimum in
    place: the lower distance wins, then the lower id."""
    take = (d < best_d) | ((d == best_d) & (ids < best_id))
    best_d[take] = d[take]
    best_id[take] = ids[take]


class NestedNets:
    """The nested hierarchy ``G_j`` of 2^j-nets used throughout the paper.

    ``G_j`` is a ``radius_of(j)``-net and every net contains each coarser
    one.  Two conventions appear in the paper and both are supported via
    ``radius_of``:

    * Theorem 2.1 uses ``G_j`` = (Δ/2^j)-nets (finer as j grows, so
      ``G_j ⊆ G_{j+1}``) — pass ``descending=True`` with
      ``base_radius=Δ``.
    * Theorems 3.2/3.4 use ``G_j`` = 2^j-nets (coarser as j grows, so
      ``G_{j+1} ⊆ G_j``) — the default, with ``base_radius=1``.

    Internally the hierarchy is always built coarsest-first so nesting
    holds by construction, carrying the distance-to-net array between
    levels so each level only pays for its newly admitted points.
    """

    def __init__(
        self,
        metric: MetricSpace,
        levels: int,
        base_radius: float = 1.0,
        descending: bool = False,
    ) -> None:
        if levels < 1:
            raise ValueError("levels must be positive")
        self.metric = metric
        self.levels = levels
        self.base_radius = base_radius
        self.descending = descending

        self._nets: Dict[int, List[NodeId]] = {}
        # Build from the coarsest level down, seeding each finer net with
        # the coarser one so that nesting holds.  The carried min-distance
        # array (capped at the coarser, i.e. larger, radius — exact
        # wherever the finer scan compares it) replaces the per-level seed
        # re-initialization.
        order = sorted(range(levels), key=self.radius_of, reverse=True)
        seed: List[NodeId] = []
        carried: Optional[np.ndarray] = None
        for j in order:
            seed, carried = greedy_scan(
                metric, self.radius_of(j), seed_points=seed, min_dist=carried
            )
            self._nets[j] = seed

    def radius_of(self, j: int) -> float:
        """The net radius at level ``j``."""
        if self.descending:
            return self.base_radius / float(2**j)
        return self.base_radius * float(2**j)

    def net(self, j: int) -> List[NodeId]:
        """The level-``j`` net (a list of node ids)."""
        if j not in self._nets:
            raise KeyError(f"level {j} not in [0, {self.levels})")
        return self._nets[j]

    def net_array(self, j: int) -> np.ndarray:
        """The level-``j`` net as an int array."""
        return np.asarray(self.net(j), dtype=int)

    def members_in_ball(self, j: int, u: NodeId, r: float) -> np.ndarray:
        """Net points of level ``j`` inside the closed ball ``B_u(r)``.

        This is the paper's ring ``Y_uj = B_u(r_j) ∩ G_j`` primitive.
        """
        candidates = self.net_array(j)
        row = self.metric.distances_from(u)
        return candidates[row[candidates] <= r]

    def nearest_member(self, j: int, u: NodeId) -> NodeId:
        """The level-``j`` net point closest to ``u`` (covering => within
        radius), read from u's row; the first admitted on ties."""
        candidates = self.net_array(j)
        row = self.metric.distances_from(u)
        return int(candidates[np.argmin(row[candidates])])

    def scan(
        self,
        levels: Sequence[int],
        radii: Sequence[float],
        nearest: bool = False,
    ) -> Tuple[List[np.ndarray], Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Every node's ring ``B_u(radii[k]) ∩ G_levels[k]`` and, with
        ``nearest``, every target's nearest member of each level, from one
        distance row per node: ``(rings, nearest)``, where ``rings[u * K +
        k]`` is a ring (node-major, K = ``len(levels)``) and ``nearest`` is
        ``(ids, dist)``, two ``(n, K)`` arrays of member ids and of their
        distances to the target (None unless asked for).

        The rows come in blocks of at most :data:`_BLOCK_ELEMS` elements,
        one column per node, the finest requested net's admission list
        first.  Each coarser net is a prefix of that list (each level
        is seeded with the coarser one), so a level reads a view of the
        block.  A ring holds the members within its radius in u's own row,
        in net order.

        A nearest member is read from the members' own rows, the lower
        distance first, then the lower id, and its distance is the one
        that row holds: the rule
        :meth:`~repro.routing.ring_scheme.RingRouting._recompute_zoom`
        applies under churn.  The scan asks the rows grouped by the
        coarsest requested level that holds them, in id order within a
        group, so each group is a contiguous run of a block.  A group's
        min and argmin fold into its running (distance, id) minimum, and
        a level's answer is the running minimum over its own group and
        every coarser one.
        """
        metric, n, K = self.metric, self.metric.n, len(levels)
        sizes = np.asarray([len(self.net(j)) for j in levels], dtype=np.intp)
        targets = np.arange(n)
        order = self.net_array(levels[int(sizes.argmax())])
        cols = np.concatenate([order, np.setdiff1d(targets, order)])
        prefixes = [(cols[:m], r) for m, r in zip(sizes.tolist(), radii)]
        # Group g holds the columns in [bounds[g-1], bounds[g]): the nodes
        # the g-th coarsest distinct net first holds; len(bounds) is none.
        bounds = np.unique(sizes)
        where = np.empty(n, dtype=np.intp)
        where[cols] = targets
        group = bounds.searchsorted(where, side="right")
        rows = np.argsort(group, kind="stable")
        group = group[rows]
        rings: List[np.ndarray] = [None] * (n * K)  # type: ignore[list-item]
        if nearest:
            best_d = np.full((bounds.size, n), np.inf)
            best_id = np.full((bounds.size, n), n, dtype=np.intp)
        chunk = max(1, _BLOCK_ELEMS // max(1, n))
        for start in range(0, n, chunk):
            us = rows[start : start + chunk]
            block = metric.distances_between(us, cols)
            for u, row in zip(us.tolist(), block):
                for k, (members, r) in enumerate(prefixes):
                    rings[u * K + k] = members[row[: members.size] <= r]
            if not nearest:
                continue
            cuts = group[start : start + us.size].searchsorted(np.arange(bounds.size + 1))
            for g, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
                if lo < hi:
                    part = block[lo:hi]
                    arg = part.argmin(axis=0)
                    _fold_min(best_d[g], best_id[g], part[arg, targets], us[lo:hi][arg])
        if not nearest:
            return rings, None
        for g in range(1, bounds.size):
            _fold_min(best_d[g], best_id[g], best_d[g - 1], best_id[g - 1])
        level_group = bounds.searchsorted(sizes)
        ids, dist = np.empty((n, K), dtype=np.intp), np.empty((n, K))
        ids[cols], dist[cols] = best_id[level_group].T, best_d[level_group].T
        return rings, (ids, dist)

    def __len__(self) -> int:
        return self.levels
