"""Theorem 2.1 — (1+δ)-stretch routing for doubling graphs via rings.

Construction (§2):

* For each scale ``j ∈ [log Δ]``, ``G_j`` is a (Δ/2^j)-net and the j-th
  ring of u is ``Y_uj = B_u(r_j) ∩ G_j`` with ``r_j = 4Δ/(δ 2^j)``.
* The *zooming sequence* of a target t is ``f_tj`` — a level-j net point
  within Δ/2^j of t (the nearest, read from the net points' own distance
  rows, the lowest id on ties); t's routing label encodes it **without
  global ids**:
  ``n_t0`` is f_t0's index in the (shared) level-0 ring enumeration, and
  ``n_tj`` is f_tj's index in the host enumeration of the previous element
  (Claim 2.3 guarantees membership).
* u's routing table holds, per scale, the translation function ζ_uj
  (Figure 2's triangle: from ``φ_uj(f)`` and ``φ_{f,j+1}(w)`` compute
  ``φ_{u,j+1}(w)``) and a first-hop link index per ring member.

Routing: decode the deepest prefix of the zooming sequence visible from
the current node (Claim 2.2 / ``j_ut``), make ``f_{t,j_ut}`` the
intermediate target, forward along first-hop pointers (Claim 2.4c: exact
shortest subpaths); on arrival pick the next intermediate target, which is
at least 1/δ times closer to t (Claim 2.4a) — total stretch 1 + O(δ)
(Claim 2.5).  The ζ-walk of Claim 2.2 looks each step's node up in the
ring of the previous one, and that node is the same from every hop: a
packet resolves its label to those nodes once (the zooming chain), and
each hop finds the chain's leading nodes in its own rings.

Representation: the rings live in one CSR
:class:`~repro.core.packed.PackedRings` block (flat ``int32`` member
array + per-(node, level) offsets) with members sorted ascending — the
sorted slices *are* the host enumerations φ_uj.  The translation
functions ζ_uj are **derived** from those enumerations (a binary search
per entry) rather than stored as Θ(n·K²) Python dicts, which is what
lets the scheme build at n = 10⁴; their *storage* is still accounted at
the paper's rates in :meth:`RingRouting.table_bits`, both dense
(``K² ceil(log K)``) and as the actual sparse triples (counted
vectorized).

Headers carry the label plus the current scale ``j``.

Under churn (:meth:`RingRouting.apply_update`) a ring row that pending
membership changes touch is served filtered from the pristine block and
containment-checked once per revision (Rinberg & Keidar's IVL hull for a
set).  The rows a route, an update's label encoding or the ζ triple
count first read are checked together, in one vectorized call, before
that call returns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair
from repro.bits import SizeAccount, bits_for_count
from repro.core.packed import PackedRings, csr_gather
from repro.core.patch import CSRPatch, PatchStats, patch_stats, require_active
from repro.core.rings import net_rings
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import FirstHopTable
from repro.metrics.graphmetric import DIJKSTRA_SLACK, ShortestPathMetric
from repro.metrics.nets import NestedNets
from repro.routing.base import RouteResult, RoutingScheme
from repro.serve.container import ContainerError, check_csr


def _sorted_find(haystack: np.ndarray, needles) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of ``needles`` in the ascending array ``haystack`` and
    whether each one is there: a binary search plus an equality gather.

    A needle counts as found only where the gathered entry equals it, so
    an unsorted ``haystack`` can make a present needle look missing but
    never a missing one look present."""
    pos = haystack.searchsorted(needles)
    if haystack.size == 0:
        return pos, np.zeros(np.shape(needles), dtype=bool)
    return pos, haystack[np.minimum(pos, haystack.size - 1)] == needles


#: Relative slack of the short-list that finds a new zooming entry for a
#: target whose entry departed (:meth:`RingRouting._zoom_step`).  The
#: winner has the least distance read from the candidates' rows, so its
#: entry in the target's row is at most (1 + γ)² / (1 - γ)² ≈ 1 + 4γ
#: times that row's minimum, where 1 ± γ bounds a computed length's
#: error (:data:`~repro.metrics.graphmetric.DIJKSTRA_SLACK` bounds 4γ).
ZOOM_SHORTLIST_SLACK = DIJKSTRA_SLACK


def _check_arrays(n: int, levels: int, arrays: dict) -> None:
    """Refuse persisted rings, zooming entries or labels that would route
    wrong, with a :class:`~repro.serve.container.ContainerError` naming
    the check: the rings are n·levels CSR rows over ``[0, n)``
    (:func:`~repro.serve.container.check_csr`); ``zoom`` and
    ``label_indices`` are (n, levels) integer arrays, with zooming
    entries in ``[-1, n)`` and ring indices >= -1 (-1 ends a label)."""
    what = "route-thm2.1 arrays"
    check_csr(what, arrays, ("ring_indptr", "ring_members"), ("n·levels", n * levels), n)
    for key, low, high in (("zoom", -1, n), ("label_indices", -1, None)):
        values = np.asarray(arrays[key])
        if values.dtype.kind not in "iu" or values.shape != (n, levels):
            raise ContainerError(
                f"malformed {what}: {key} must be an integer array of shape "
                f"(n, levels) = {(n, levels)} (has {values.dtype} {values.shape})"
            )
        over = high is not None and values.size and values.max() >= high
        if values.size and values.min() < low or over:
            bound = f"be >= {low}" if high is None else f"lie in [{low}, {high})"
            raise ContainerError(f"malformed {what}: {key} entries must {bound}")


def _position(members: np.ndarray, node: NodeId) -> Optional[int]:
    """Index of ``node`` in the ascending enumeration ``members``, or None."""
    idx = int(members.searchsorted(node))
    if idx < members.size and members[idx] == node:
        return idx
    return None


class _UpdateRows:
    """The full distance rows ``d(x, ·)`` one update reads, each asked of
    the metric at most once: :meth:`ask` fetches the ids not yet held in
    one ``distances_between`` call, and indexing returns held rows."""

    def __init__(self, metric, n: int) -> None:
        self._metric = metric
        self._all = np.arange(n)
        self._held: List[Tuple[np.ndarray, np.ndarray]] = []  # (ids, rows)

    def ask(self, ids: np.ndarray) -> None:
        ids = np.unique(ids)
        for held, _ in self._held:
            ids = ids[~_sorted_find(held, ids)[1]]
        if ids.size:
            block = self._metric.distances_between(ids, self._all)
            self._held.append((ids, np.asarray(block)))

    def __getitem__(self, ids: np.ndarray) -> np.ndarray:
        """The rows of ``ids``, one per id (asked first where missing)."""
        self.ask(ids)
        if len(self._held) == 1:
            held, block = self._held[0]
            return block[held.searchsorted(ids)]
        out = np.empty((ids.size, self._all.size))
        for held, block in self._held:
            pos, found = _sorted_find(held, ids)
            out[found] = block[pos[found]]
        return out


@dataclass
class RingRoutingLabel:
    """Routing label of a target: global id + encoded zooming sequence."""

    node: NodeId
    indices: Tuple[int, ...]  # n_tj for j in [levels]


class RingRouting(RoutingScheme):
    """The Theorem 2.1 scheme on a weighted graph."""

    def __init__(
        self,
        graph: WeightedGraph,
        delta: float,
        metric: Optional[ShortestPathMetric] = None,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.graph = graph
        self.delta = delta
        self.metric = metric if metric is not None else ShortestPathMetric(graph)
        # A lazy metric backend implies lazy (target-keyed) first hops —
        # under the metric's configured byte budget — so nothing Θ(n²) is
        # materialized anywhere in the scheme.
        self.first_hops = FirstHopTable(
            graph,
            dense=getattr(self.metric, "dense", True),
            row_cache_bytes=getattr(self.metric, "row_cache_budget", None),
        )

        # Scales: G_j is a (Δ/2^j)-net of the shortest-path metric, where Δ
        # here is the diameter (the paper normalizes min distance to 1).
        diameter = self.metric.diameter()
        min_d = self.metric.min_distance()
        self.levels = int(math.ceil(math.log2(diameter / min_d))) + 2
        self.nets = NestedNets(
            self.metric, levels=self.levels, base_radius=diameter,
            descending=True,
        )
        self._ring_radius = [
            4.0 * diameter / (delta * 2.0**j) for j in range(self.levels)
        ]

        # Rings and zooming entries from one pass over the distance rows
        # (each asked once), packed into a single CSR block; sorting the
        # member slices makes them double as the host enumerations φ_uj.
        # f_tj is the nearest member of G_j read from the members' own
        # rows, lowest id on ties, and d(f_tj, t) is kept from that row:
        # the rule and the distances an update works from.
        rings, (zoom, zoom_dist) = net_rings(
            self.metric, self.nets,
            lambda j: self._ring_radius[j],
            return_nearest=True,
        )
        self.rings_packed = rings.with_sorted_members()
        self._indptr = self.rings_packed.indptr
        self._members = self.rings_packed.members
        #: per-(node, level) ring sizes, (n, levels)
        self._sizes = self.rings_packed.ring_sizes()
        #: the paper's K, fixed at build time (table_bits sweeps reuse it)
        self._max_ring_card = self.rings_packed.max_ring_cardinality()

        self._init_mutation_state()
        self._zoom = zoom.astype(np.int32)
        self._zoom_dist = zoom_dist
        self.labels: List[RingRoutingLabel] = self._encode_labels(strict=True)

        # Sparse ζ triple counts per (node, level) — computed lazily (and
        # vectorized) the first time the accounting asks for them.
        self._zeta_triples: Optional[np.ndarray] = None

    def _init_mutation_state(self) -> None:
        self._patch: Optional[CSRPatch] = None
        self._level_members0: Optional[List[np.ndarray]] = None
        #: d(f_tj, t) read from f_tj's row, per zooming entry (n, levels),
        #: inf where a level has no active net point; kept from the build,
        #: and filled by the first update of a loaded structure
        self._zoom_dist: Optional[np.ndarray] = None
        #: dirty row -> its checked, read-only enumeration, this revision
        self._checked: Dict[int, np.ndarray] = {}
        #: (row, enumeration) first read inside an open check scope, and
        #: how many scopes are open (:meth:`_check_scope`)
        self._unchecked: List[Tuple[int, np.ndarray]] = []
        self._scopes = 0
        self.revision = 0
        self.ivl_checks = 0
        self.ivl_violations = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _ring_arr(self, u: NodeId, j: int) -> np.ndarray:
        """``Y_uj`` as a sorted int array (the host enumeration φ_uj).

        A clean row is a slice of the stored CSR block.  A dirty row is
        filtered (``CSRPatch.filtered_row``) on its first read in a
        revision, frozen and kept in ``_checked``; later reads in the same
        revision get that array.  Its containment check
        (:meth:`_ivl_ring_checks`) runs at once for a lone read, or, for a
        read inside :meth:`_check_scope` (a route, an update's label
        encoding, the ζ triple count), together with the scope's other
        first reads when the scope closes, before that call returns.  The
        verdict depends only on the row, the active set, the last-merged
        and the pristine arrays, and none of them changes within a
        revision, so every enumeration served is one that is checked."""
        if not 0 <= j < self.levels:
            # The flat CSR index would silently alias into another node's
            # rings; fail fast like the legacy list-of-lists did.
            raise IndexError(f"ring level {j} out of range [0, {self.levels})")
        i = u * self.levels + j
        patch = self._patch
        if patch is not None and patch.row_dirty(i):
            served = self._checked.get(i)
            if served is None:
                served, _ = patch.filtered_row(i)
                served.flags.writeable = False
                self._checked[i] = served
                if self._scopes:
                    self._unchecked.append((i, served))
                else:
                    self._ivl_ring_checks([i], [served])
            return served
        return self._members[self._indptr[i] : self._indptr[i + 1]]

    @contextmanager
    def _check_scope(self):
        """Defer the containment checks of the dirty rows first read inside
        to one :meth:`_ivl_ring_checks` call when the outermost scope
        closes (also on an exception).  Re-entrant: an inner scope adds
        its rows to the outer one's batch."""
        self._scopes += 1
        try:
            yield
        finally:
            self._scopes -= 1
            if not self._scopes and self._unchecked:
                pending, self._unchecked = self._unchecked, []
                rows, served = zip(*pending)
                self._ivl_ring_checks(rows, served)

    def ring(self, u: NodeId, j: int) -> Tuple[NodeId, ...]:
        """``Y_uj`` in host-enumeration order."""
        return tuple(int(x) for x in self._ring_arr(u, j))

    def _encode_labels(self, strict: bool) -> List[RingRoutingLabel]:
        """Every target's label: its zooming sequence as ring indices.

        Level j places each target whose label reached level j - 1 (every
        target at level 0) in its owner's ring: the target's own ring at
        level 0 (n_t0; the level-0 rings coincide, since r_0 >= 4Δ/δ
        covers the metric), else the ring of f_t,j-1.  Each distinct
        owner's ring is read once through :meth:`_ring_arr`, so dirty
        rows are filtered, checked and tabled as a walk target by target
        would; the rings are concatenated under the keys ``slot·n +
        member``, ascending because the owners are sorted and each ring
        ascends, and one binary search places every target.

        A label ends before its first level whose entry is -1 or missing
        from the owner's ring.  With ``strict`` (the build) a missing
        entry raises instead: at build time Claim 2.3 guarantees
        containment, and level 0 must have an entry."""
        n, zoom = self.graph.n, self._zoom
        indices = np.full((n, self.levels), -1, dtype=np.int64)
        reached = zoom[:, 0] >= 0
        if strict and not reached.all():
            raise RuntimeError("level-0 ring must contain f_t0")
        for j in range(self.levels):
            targets = np.flatnonzero(reached)
            if targets.size == 0:
                break
            owners = targets if j == 0 else zoom[targets, j - 1]
            slots, slot_of = np.unique(owners, return_inverse=True)
            rings = [self._ring_arr(int(u), j) for u in slots.tolist()]
            sizes = np.fromiter(map(len, rings), dtype=np.int64, count=len(rings))
            starts = np.cumsum(sizes) - sizes
            keys = np.repeat(np.arange(slots.size, dtype=np.int64) * n, sizes)
            keys += np.concatenate(rings)
            pos, found = _sorted_find(keys, slot_of * n + zoom[targets, j])
            if strict and not found.all():
                t = int(targets[~found][0])
                if j == 0:
                    raise RuntimeError("level-0 ring must contain f_t0")
                raise RuntimeError(
                    f"Claim 2.3 violated: f_({t},{j}) not in ring of f_({t},{j-1})"
                )
            placed = targets[found]
            indices[placed, j] = pos[found] - starts[slot_of[found]]
            reached[:] = False
            if j + 1 < self.levels:
                reached[placed] = zoom[placed, j + 1] >= 0
        # a label's levels are a prefix: none is placed after a miss
        rows, ends = indices.tolist(), np.count_nonzero(indices >= 0, axis=1).tolist()
        return [
            RingRoutingLabel(node=t, indices=tuple(rows[t][: ends[t]]))
            for t in range(n)
        ]

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    #
    # Membership-churn semantics: the node universe (and the graph, whose
    # edges keep carrying traffic) is fixed; joins/leaves toggle an active
    # mask.  Every derived quantity — ring enumerations, per-level nets
    # G_j (a departed net point is *not* replaced), zooming sequences and
    # labels — is a pure function of (pristine build, active set),
    # recomputed or, for zooming entries, updated incrementally to the
    # same values, so interleaved updates and one bulk update converge to
    # bit-identical state.

    def _ensure_mutable(self) -> CSRPatch:
        if self._patch is None:
            self._patch = CSRPatch(
                self._indptr, self._members, universe=self.graph.n
            )
            self._level_members0 = self._pristine_nets()
        return self._patch

    def _pristine_nets(self) -> List[np.ndarray]:
        """Each G_j, ascending, from the pristine rings: v ∈ G_j ⟺ v ∈
        ring(v, j) (a net point is always within r_j of itself).  One
        search over the whole CSR block: member m of row r is the key
        r·n + m, ascending because rows are in order and each row's
        members ascend."""
        n, levels = self.graph.n, self.levels
        rows = np.repeat(np.arange(n * levels, dtype=np.int64), np.diff(self._indptr))
        keys = rows * n + self._members
        v = np.arange(n, dtype=np.int64)[:, None]
        found = _sorted_find(keys, (v * levels + np.arange(levels)) * n + v)[1]
        return [np.flatnonzero(found[:, j]) for j in range(levels)]

    def _ivl_ring_checks(
        self, rows: Sequence[int], served: Sequence[np.ndarray]
    ) -> None:
        """Set-containment invariant on k dirty ring enumerations at once,
        one verdict per row: everything ``served[i]`` holds must be active
        and in the pristine row ``rows[i]``, and every still-active member
        of the last-merged row must be served (the IVL hull for an
        enumeration read).  ``ivl_checks`` counts checked enumerations,
        not reads, and ``ivl_violations`` the rows failing any of the three.

        The rows' pristine and last-merged members are ``csr_gather``-ed
        and, like the served ones, tagged ``slot·n + member`` by their
        position in the batch, so both containments are one binary search
        each.  The tagged arrays ascend because each row does; an unsorted
        served row can only add a violation, never hide one
        (:func:`_sorted_find`)."""
        patch, n, k = self._patch, self.graph.n, len(served)
        act = patch.membership.active
        rows = np.asarray(rows, dtype=np.int64)
        slots = np.arange(k, dtype=np.int64)
        members = np.concatenate(served)
        owner = np.repeat(slots, np.fromiter(map(len, served), np.int64, k))
        keys = owner * n + members
        idx, sizes = csr_gather(patch.pristine_indptr, rows)
        hull = np.repeat(slots * n, sizes) + patch.pristine_keys[idx]
        bad = np.zeros(k, dtype=bool)
        bad[owner[~(act[members] & _sorted_find(hull, keys)[1])]] = True
        idx, sizes = csr_gather(patch.merged_indptr, rows)
        pre, pre_owner = patch.merged_keys[idx], np.repeat(slots, sizes)
        live = act[pre]
        pre, pre_owner = pre[live], pre_owner[live]
        bad[pre_owner[~_sorted_find(keys, pre_owner * n + pre)[1]]] = True
        self.ivl_checks += k
        self.ivl_violations += int(np.count_nonzero(bad))

    def _refresh_sizes(self) -> None:
        patch = self._patch
        mask = patch.membership.active[patch.pristine_keys]
        cum = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
        counts = cum[patch.pristine_indptr[1:]] - cum[patch.pristine_indptr[:-1]]
        self._sizes = counts.reshape(self.graph.n, self.levels)

    def _recompute_zoom(
        self, levels: List[int], rows: Optional[_UpdateRows] = None
    ) -> None:
        """Canonical zooming entries for ``levels``: per level j, the
        nearest *active* member of G_j, lowest id on ties (candidates are
        id-sorted and argmin takes the first minimum) — order-independent
        by construction.  The build picks its entries by the same rule
        from the same rows (:func:`~repro.core.rings.net_rings`), so with
        every node active this recompute returns the build's entries.

        One row-oriented ``distances_between(union, all nodes)`` block over
        the union of the levels' candidates serves every level, each
        taking its argmin over its own rows.  The nets nest (G_j ⊆
        G_{j+1}), so the union is the finest level's candidate set and the
        block is never larger than that level's own.  ``rows`` shares an
        update's rows, so none is asked twice.

        It stores each entry's distance d(f_tj, t), read from f_tj's row
        (inf where the level has no active net point).  It is the
        reference the increments of :meth:`_zoom_step` equal, and the
        fallback :meth:`_update_zoom` takes where they would cost more."""
        act = self._patch.membership.active
        members = [self._level_members0[j] for j in levels]
        cands = [lm[act[lm]] for lm in members]
        if rows is None:
            rows = _UpdateRows(self.metric, self.graph.n)
        rows.ask(np.concatenate(cands))
        for j, c in zip(levels, cands):
            if c.size == 0:
                self._zoom[:, j] = -1
                self._zoom_dist[:, j] = np.inf
                continue
            block = rows[c]
            best = block.argmin(axis=0)
            self._zoom[:, j] = c[best]
            self._zoom_dist[:, j] = block[best, np.arange(self.graph.n)]

    def _update_zoom(self, join_ids: np.ndarray, leave_ids: np.ndarray) -> None:
        """The zooming entries after one batch, in proportion to churn.

        A level whose net G_j holds no changed node keeps its entries.
        A level where more targets lost their entry than G_j has active
        points is recomputed whole (:meth:`_recompute_zoom`); any other
        level takes the step of :meth:`_zoom_step`.  The rows of the
        whole levels' candidates, the joined net points and the targets
        whose entry departed are asked in one call, the short-listed
        candidates' in one more per level; no row is asked twice.

        A loaded structure has no stored distances, and its entries are a
        read-only view of the container: its first update copies them
        and reads d(f_tj, t) from the entries' own rows, in one call."""
        if self._zoom_dist is None:
            zoom = self._zoom = np.array(self._zoom)
            has = zoom >= 0
            points = np.unique(zoom[has])
            block = _UpdateRows(self.metric, self.graph.n)[points]
            self._zoom_dist = np.full(zoom.shape, np.inf)
            self._zoom_dist[has] = block[points.searchsorted(zoom[has]), np.nonzero(has)[0]]
        act = self._patch.membership.active
        whole, steps, wanted = [], [], []
        for j in range(self.levels):
            net = self._level_members0[j]
            joined = join_ids[_sorted_find(net, join_ids)[1]]
            left = leave_ids[_sorted_find(net, leave_ids)[1]]
            if joined.size == 0 and left.size == 0:
                continue
            lost = np.flatnonzero(_sorted_find(left, self._zoom[:, j])[1])
            if lost.size > np.count_nonzero(act[net]):
                whole.append(j)
            else:
                steps.append((j, joined, lost))
                wanted += [joined, lost]
        if whole:
            finest = self._level_members0[max(whole)]
            wanted.append(finest[act[finest]])
        if not wanted:
            return
        rows = _UpdateRows(self.metric, self.graph.n)
        rows.ask(np.concatenate(wanted))
        if whole:
            self._recompute_zoom(whole, rows)
        for j, joined, lost in steps:
            self._zoom_step(j, joined, lost, rows)

    def _zoom_step(
        self, j: int, joined: np.ndarray, lost: np.ndarray, rows: _UpdateRows
    ) -> None:
        """Level j's entries after a batch, from its entries before.

        A target whose entry stayed active keeps it unless a joined net
        point p is nearer, d(p, t) from p's row: the lower distance wins,
        then the lower id.  A target in ``lost`` (its entry departed)
        takes the nearest active net point in two steps.  Its own row
        short-lists every candidate c with d(t, c) within a relative
        :data:`ZOOM_SHORTLIST_SLACK` of the row's minimum, which holds
        the winner despite float error; then the short-listed
        candidates' own rows decide exactly.  The lazy metric's two
        orientations of a distance differ in the last ulp, so a value
        read from the target's row is never stored and never decides a
        winner."""
        n = self.graph.n
        zoom, dist = self._zoom[:, j], self._zoom_dist[:, j]
        if joined.size:
            block = rows[joined]
            best = block.argmin(axis=0)
            d, p = block[best, np.arange(n)], joined[best]
            win = (d < dist) | ((d == dist) & (p < zoom))
            zoom[win], dist[win] = p[win], d[win]
        if lost.size:
            net = self._level_members0[j]
            cands = net[self._patch.membership.active[net]]
            own = rows[lost][:, cands]
            near = own <= own.min(axis=1, keepdims=True) * (1.0 + ZOOM_SHORTLIST_SLACK)
            short = cands[near.any(axis=0)]
            ti, ci = np.nonzero(near)
            exact = np.full(own.shape, np.inf)
            exact[ti, ci] = rows[short][short.searchsorted(cands[ci]), lost[ti]]
            best = exact.argmin(axis=1)
            zoom[lost] = cands[best]
            dist[lost] = exact[np.arange(lost.size), best]

    def apply_update(self, joins=(), leaves=()) -> bool:
        """Apply one join/leave batch to the routing structure.

        The batch starts a new revision: the checked enumerations of the
        last one are dropped, and each dirty ring is filtered and checked
        against its containment hull again on its first read
        (:meth:`_ring_arr`).  The rings the label encoding reads are
        checked in one batch when the encoding ends, before any merge.

        Zooming entries change only where churn changed something
        (:meth:`_update_zoom`), starting from the entries and distances
        the build kept, and stay bit-identical to a whole recompute
        (:meth:`_zoom_step`).  Each metric row is asked at most once per
        update.

        All labels are then re-encoded against the live enumerations
        (:meth:`_encode_labels`) — truncated, not failed, where Claim
        2.3's containment no longer holds under churn.  Returns whether
        the update triggered an automatic patch merge.
        """
        patch = self._ensure_mutable()
        join_ids, leave_ids = patch.apply(joins, leaves)
        self._checked = {}
        self.revision += 1
        self._refresh_sizes()
        self._update_zoom(join_ids, leave_ids)
        with self._check_scope():
            self.labels = self._encode_labels(strict=False)
        self._zeta_triples = None
        merged = patch.maybe_merge()
        if merged:
            self._adopt_merged()
        return merged

    def _adopt_merged(self) -> None:
        patch = self._patch
        self._indptr = patch.merged_indptr
        self._members = patch.merged_keys
        self._checked = {}
        self._zeta_triples = None

    def compact(self) -> PatchStats:
        """Force-merge pending churn into a fresh packed CSR block."""
        patch = self._ensure_mutable()
        patch.merge()
        self._adopt_merged()
        self._refresh_sizes()
        return patch.stats()

    def pending_patch_stats(self) -> PatchStats:
        if self._patch is None:
            return patch_stats(None, self.graph.n, self.graph.n * self.levels)
        return self._patch.stats()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_arrays(self) -> tuple:
        """(meta, arrays): graph adjacency, first hops, packed rings,
        zooming matrix and encoded labels — everything :meth:`route` and
        the accounting read.  The nets are construction scaffolding (the
        rings and zooming sequences already encode their output) and are
        not persisted.

        During churn the rings written are the live ones (the block the
        next merge would install), and a label cut short by churn is
        padded with -1 after its last level, so a loaded copy routes like
        the structure that was saved.  Once updated, the meta also holds
        the paper's K fixed at build, which the loaded copy's table
        accounting uses instead of the written rings' largest."""
        fh_meta, fh_arrays = self.first_hops.to_arrays()
        arrays = dict(self.graph.to_adjacency_arrays())
        arrays.update(fh_arrays)
        patch = self._patch
        if patch is not None and not patch.is_clean():
            arrays["ring_indptr"], arrays["ring_members"], _ = patch.live_arrays()
        else:
            arrays["ring_indptr"] = self._indptr
            arrays["ring_members"] = self._members
        arrays["ring_radii"] = self.rings_packed.radii
        arrays["zoom"] = self._zoom
        label_indices = np.full((self.graph.n, self.levels), -1, dtype=np.int32)
        for t, label in enumerate(self.labels):
            label_indices[t, : len(label.indices)] = label.indices
        arrays["label_indices"] = label_indices
        meta = {
            "delta": self.delta,
            "levels": int(self.levels),
            "ring_radius": [float(r) for r in self._ring_radius],
            "first_hops": fh_meta,
        }
        # Churn only shrinks rings, so once updated the rings written may
        # no longer hold the build-time K (nor those a loaded copy of an
        # updated structure holds); a never-updated build writes none
        # and keeps its content hash.
        k = self._max_ring_card
        if patch is not None or k != self.rings_packed.max_ring_cardinality():
            meta["max_ring_cardinality"] = int(k)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        meta: dict,
        arrays: dict,
        n: int,
        row_cache_bytes: Optional[int] = None,
    ) -> "RingRouting":
        """Rehydrate an n-node scheme from :meth:`to_arrays` with zero net
        construction.

        The graph adjacency, rings, zooming entries and labels are
        checked first (:func:`_check_arrays`).  The attached metric is
        always the lazy (row-on-demand) :class:`ShortestPathMetric` —
        routing itself never consults it, and evaluation distances are
        identical either way; a loaded structure must not pay an APSP
        rebuild."""
        graph = WeightedGraph.from_adjacency_arrays(arrays, n)
        _check_arrays(graph.n, int(meta["levels"]), arrays)
        scheme = cls.__new__(cls)
        scheme.graph = graph
        scheme.delta = float(meta["delta"])
        scheme.metric = (
            ShortestPathMetric(graph, dense=False)
            if row_cache_bytes is None
            else ShortestPathMetric(
                graph, dense=False, row_cache_bytes=row_cache_bytes
            )
        )
        scheme.first_hops = FirstHopTable.from_arrays(
            graph, meta["first_hops"], arrays, row_cache_bytes=row_cache_bytes
        )
        scheme.levels = int(meta["levels"])
        scheme.nets = None
        scheme._ring_radius = [float(r) for r in meta["ring_radius"]]
        scheme.rings_packed = PackedRings(
            scheme.metric,
            keys=range(scheme.levels),
            radii=np.asarray(arrays["ring_radii"]),
            indptr=np.asarray(arrays["ring_indptr"]),
            members=np.asarray(arrays["ring_members"]),
            provenance={"builder": "loaded", "sorted": True},
        )
        scheme._indptr = scheme.rings_packed.indptr
        scheme._members = scheme.rings_packed.members
        scheme._sizes = scheme.rings_packed.ring_sizes()
        scheme._max_ring_card = int(
            meta.get("max_ring_cardinality", scheme.rings_packed.max_ring_cardinality())
        )
        scheme._zoom = np.asarray(arrays["zoom"])
        # A label ends at its first -1 (padding written for churn-cut labels).
        label_indices = np.asarray(arrays["label_indices"])
        cut = label_indices < 0
        ends = np.where(cut.any(axis=1), cut.argmax(axis=1), scheme.levels)
        scheme.labels = [
            RingRoutingLabel(node=t, indices=tuple(label_indices[t, : ends[t]].tolist()))
            for t in range(graph.n)
        ]
        scheme._zeta_triples = None
        scheme._init_mutation_state()
        return scheme

    # ------------------------------------------------------------------
    # Translation functions ζ_uj, derived from the packed enumerations
    # ------------------------------------------------------------------

    def zeta_lookup(self, u: NodeId, j: int, fi: int, wi: int) -> Optional[int]:
        """``ζ_uj(fi, wi) = φ_{u,j+1}(w)`` for ``f = φ_uj^{-1}(fi)`` and
        ``w = φ_{f,j+1}^{-1}(wi)``; None outside the triangle (exactly the
        nulls the stored sparse table would have)."""
        ring_u = self._ring_arr(u, j)
        if fi >= ring_u.size:
            return None
        ring_f_next = self._ring_arr(int(ring_u[fi]), j + 1)
        if wi >= ring_f_next.size:
            return None
        return _position(self._ring_arr(u, j + 1), int(ring_f_next[wi]))

    def zeta_items(
        self, u: NodeId, j: int
    ) -> Iterator[Tuple[Tuple[int, int], int]]:
        """The sparse ζ_uj triples ``((fi, wi), k)``, lazily enumerated."""
        ring_u_next = self._ring_arr(u, j + 1)
        for fi, f in enumerate(self._ring_arr(u, j)):
            pos, found = _sorted_find(ring_u_next, self._ring_arr(int(f), j + 1))
            for wi in np.flatnonzero(found):
                yield (int(fi), int(wi)), int(pos[wi])

    def _gathered_next_rings(self, fs: np.ndarray, j_next: int) -> np.ndarray:
        """Concatenated live ``ring(f, j_next)`` members over ``fs`` (CSR
        gather).  Once churn has arrived the gather reads the pristine
        rows masked by the active set, as :meth:`_ring_arr` serves a dirty
        row; for a clean row that equals the last-merged row."""
        rows = fs.astype(np.int64) * self.levels + j_next
        patch = self._patch
        if patch is None:
            idx, _ = csr_gather(self._indptr, rows)
            return self._members[idx]
        idx, _ = csr_gather(patch.pristine_indptr, rows)
        members = patch.pristine_keys[idx]
        return members[patch.membership.active[members]]

    def _zeta_triple_counts(self) -> np.ndarray:
        """Number of sparse ζ_uj entries per (u, j), all levels at once.

        One CSR gather + binary search per (node, level) — the vectorized
        replacement for materializing the translation dicts just to take
        their ``len``.
        """
        if self._zeta_triples is None:
            n = self.graph.n
            counts = np.zeros((n, self.levels - 1), dtype=np.int64)
            with self._check_scope():
                for u in range(n):
                    for j in range(self.levels - 1):
                        ring_u_next = self._ring_arr(u, j + 1)
                        if ring_u_next.size == 0:
                            continue
                        gathered = self._gathered_next_rings(
                            self._ring_arr(u, j), j + 1
                        )
                        counts[u, j] = np.count_nonzero(
                            _sorted_find(ring_u_next, gathered)[1]
                        )
            self._zeta_triples = counts
        return self._zeta_triples

    # ------------------------------------------------------------------
    # Claim 2.2: decode j_ut and the ring indices of the zooming prefix
    # ------------------------------------------------------------------

    def _chain(self, u: NodeId, label: RingRoutingLabel) -> List[int]:
        """The label's zooming prefix as node ids, read from u's level-0
        enumeration: ``w_0 = φ_u0^{-1}(n_t0)``, then ``w_j =
        φ_{w_{j-1},j}^{-1}(n_tj)``, up to the first index past its ring's
        end.  The level-0 rings coincide (r_0 covers the metric), so every
        node reads the same chain, and its rings are the owner rings the
        label encoder read: a route resolves it once per packet."""
        chain: List[int] = []
        for j, m in enumerate(label.indices):
            ring = self._ring_arr(chain[-1] if j else u, j)
            if m >= ring.size:
                break
            chain.append(int(ring[m]))
        return chain

    def _decode(
        self, u: NodeId, label: RingRoutingLabel, chain: Optional[List[int]] = None
    ) -> List[int]:
        """Ring indices ``m_j = φ_uj(f_tj)`` for ``j <= j_ut``.

        Uses only u's table (its rings) and the label, as in the proof of
        Claim 2.2: the ζ-walk's ``ζ_uj(m_j, n_t,j+1) = φ_{u,j+1}(w_{j+1})``
        is the position of the chain's next node (:meth:`_chain`; resolved
        here unless given) in u's next ring, so the decode is the leading
        run of the chain's positions in u's rings, each read once.
        """
        if chain is None:
            chain = self._chain(u, label)
        indices: List[int] = []
        for j, w in enumerate(chain):
            m = _position(self._ring_arr(u, j), w)
            if m is None:
                break
            indices.append(m)
        return indices

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def header_bits(self, label: RingRoutingLabel) -> int:
        """Packet header: the label plus the current scale index."""
        bits = bits_for_count(self.graph.n)  # ID(t) for termination
        for j in range(len(label.indices)):
            ring_size = (
                self._sizes[label.node, 0]
                if j == 0
                else self._sizes[self._zoom[label.node, j - 1], j]
            )
            bits += bits_for_count(int(ring_size))
        bits += bits_for_count(self.levels)  # current intermediate scale j
        return bits

    def route(
        self, source: NodeId, target: NodeId, max_hops: Optional[int] = None
    ) -> RouteResult:
        """Route a packet from ``source`` to ``target`` (Claims 2.2-2.5).

        The label's zooming chain is resolved to node ids once
        (:meth:`_chain`); each hop decodes its prefix against the current
        node's rings (:meth:`_decode`) and forwards along the first-hop
        pointer toward the deepest decoded entry.  The dirty rings first
        read in the call are checked together before it returns
        (:meth:`_check_scope`)."""
        source, target = as_node_pair(source, target, self.graph.n)
        if self._patch is not None:
            require_active(self._patch.membership, source, target)
        label = self.labels[target]
        limit = max_hops if max_hops is not None else 4 * self.graph.n + 16
        header = self.header_bits(label)

        path = [source]
        current = source
        intermediate_j: Optional[int] = None
        with self._check_scope():
            chain = self._chain(source, label) if source != target else []
            while current != target and len(path) <= limit:
                decoded = self._decode(current, label, chain)
                if not decoded:
                    break  # delivery failure (should not happen; tests assert)
                if intermediate_j is None or intermediate_j >= len(decoded):
                    intermediate_j = len(decoded) - 1
                f = int(self._zoom[target, intermediate_j])
                if f == current:
                    # Reached the intermediate target: pick the next one.
                    intermediate_j = len(decoded) - 1
                    f = int(self._zoom[target, intermediate_j])
                    if f == current:
                        break  # cannot make progress (failure)
                nxt = self.first_hops.first_hop(current, f)
                path.append(nxt)
                current = nxt
        return RouteResult(
            source=source,
            target=target,
            path=path,
            reached=current == target,
            header_bits=header,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def max_ring_cardinality(self) -> int:
        """The paper's K = (16/δ)^α bound, measured."""
        return self._max_ring_card

    def table_bits(self, u: NodeId, dense_translation: bool = False) -> SizeAccount:
        """Routing table of u.

        ``dense_translation=True`` charges the paper's ``K² ceil(log K)``
        per-scale table; the default charges the sparse triples actually
        stored (counted from the packed enumerations).
        """
        account = SizeAccount()
        link_bits = bits_for_count(self.graph.max_out_degree())
        neighbors = int(self._sizes[u].sum())
        account.add("first_hop_pointers", neighbors * link_bits)
        if dense_translation:
            big_k = self.max_ring_cardinality()
            per_scale = big_k * big_k * bits_for_count(big_k)
            account.add("translation_dense", (self.levels - 1) * per_scale)
        else:
            triples = self._zeta_triple_counts()[u]
            for j in range(self.levels - 1):
                k_here = max(1, int(self._sizes[u, j]))
                k_next = max(1, int(self._sizes[u, j + 1]))
                entry_bits = (
                    bits_for_count(k_here)
                    + bits_for_count(self.max_ring_cardinality())
                    + bits_for_count(k_next)
                )
                account.add("translation_triples", int(triples[j]) * entry_bits)
        account.add("global_id", bits_for_count(self.graph.n))
        return account

    def label_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        account.add("zooming_sequence", self.header_bits(self.labels[u])
                    - bits_for_count(self.levels) - bits_for_count(self.graph.n))
        account.add("global_id", bits_for_count(self.graph.n))
        return account
