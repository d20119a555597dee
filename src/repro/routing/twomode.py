"""Theorem 4.2 / B.1 — two-mode routing for graphs with huge aspect ratio.

The scheme combines everything built so far (the paper calls it "the
culmination of our techniques"): rings of neighbors, zooming sequences,
first-hop pointers and host/virtual enumerations from Theorems 2.1 and
3.4.

**Mode M1** (an elaboration of Theorem 2.1's routing): the packet header
carries the target's Theorem-3.4 label plus an *intermediate-target id*
``(i, j, ψ-index, Dest)``.  A node u identifies the target's zooming
sequence inside its own enumerations via the translation maps, evaluates
the *friends* of t (the nearest X_i-neighbor ``x_ti`` and the net points
``y_tj, j ∈ J_ti``) through ψ-indices carried in the label, and selects a
*(u,i,j)-good* node w — conditions (c1)–(c5) of Appendix B — as the
intermediate target.  Relays re-identify w as a *(v,i,j)-landmark* and
forward along first-hop pointers, nulling the intermediate id once within
``2δ' · Dest`` of it.

**Mode M2** (entered exactly when M1 cannot identify a good/landmark node;
Lemma B.5 shows this only happens under a scale gap): u forwards to the
*anchor* ``h`` — the center of the (2^-i,µ)-packing ball covering u — and
the nodes of that ball collectively store full low-hop routes to every
node of ``B' = B_{h,i-1}``: ids are split into contiguous chunks over the
ball members (the paper's subtree-range trick), the owner ``v_t`` of
ID(t) stores a low-hop path to t, and the packet is source-routed on the
final leg.

Two pragmatic deviations from the paper: the intra-ball tree is
realized as full-graph shortest paths from the anchor (same distances,
different relay set); the switch level i is chosen from the label-based
distance estimate with a fallback scan to coarser levels (the paper's
scheme detects a failed directory lookup and re-tries the same way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair
from repro.bits import SizeAccount, bits_for_count
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import FirstHopTable
from repro.labeling.dls import X, RingDLS
from repro.metrics.graphmetric import ShortestPathMetric
from repro.routing.base import RouteResult, RoutingScheme

#: A friend entry in the routing label: (scale i, net level j or None for
#: the x-friend, ψ-index in f_{t,i-1}'s virtual enumeration, stored
#: distance from t).
FriendEntry = Tuple[int, Optional[int], int, float]


@dataclass
class TwoModeLabel:
    """Routing label of a target node: its friends and id on top of its
    Theorem 3.4 label, which the decoder reads from ``dls`` by node."""

    node: NodeId
    friends: List[FriendEntry]
    extra_bits: int


class TwoModeRouting(RoutingScheme):
    """The Theorem 4.2 / B.1 scheme."""

    def __init__(
        self,
        graph: WeightedGraph,
        delta: float,
        metric: Optional[ShortestPathMetric] = None,
        strict_goodness: bool = False,
    ) -> None:
        """``strict_goodness=True`` enables the literal (c4)-(c5) constants
        of Appendix B.  At laptop-scale n those constants almost never
        admit a good node (every packet falls through to mode M2) — an
        honest finding reported in EXPERIMENTS.md — so the default uses
        the behavioral condition d_wt <= δ'·d_uw plus operational
        identifiability, which is what the analysis actually exploits."""
        if not 0 < delta < 0.5:
            raise ValueError(f"delta must be in (0, 1/2), got {delta}")
        self.graph = graph
        self.delta = delta
        self.strict_goodness = strict_goodness
        self.delta_prime = delta / (1.0 - delta)
        self.metric = metric if metric is not None else ShortestPathMetric(graph)
        self.first_hops = FirstHopTable(graph)

        self.dls = RingDLS(self.metric, delta=delta)
        self.scales = self.dls.scales
        self._levels_n = self.scales.levels_n

        self.labels: List[TwoModeLabel] = [
            self._build_label(t) for t in range(graph.n)
        ]
        self._resolve_friends()
        self._build_mode2()

    # ------------------------------------------------------------------
    # Labels (mode M1 data)
    # ------------------------------------------------------------------

    def _friend_candidates(self, t: NodeId) -> List[Tuple[int, Optional[int], NodeId]]:
        """(i, j-or-None, node) triples for x_ti and S_ti = {y_tj}."""
        scales = self.scales
        out: List[Tuple[int, Optional[int], NodeId]] = []
        for i in range(1, self._levels_n):
            x = scales.nearest_x_neighbor(t, i)
            if x is not None:
                out.append((i, None, x))
            r_ti = scales.rui(t, i)
            j_lo = int(math.floor(math.log2(max(1e-300, scales.delta * r_ti / 4.0 / scales.base))))
            j_hi = int(math.ceil(math.log2(max(1e-300, 6.0 * r_ti / scales.base))))
            for j in range(max(0, j_lo), min(scales.nets.levels - 1, j_hi) + 1):
                y = scales.nets.nearest_member(j, t)
                out.append((i, j, y))
        return out

    def _build_label(self, t: NodeId) -> TwoModeLabel:
        zoom = self.scales.zooming_sequence(t)
        row = self.metric.distances_from(t)
        friends: List[FriendEntry] = []
        extra_bits = bits_for_count(self.graph.n)  # ID(t)
        for i, j, w in self._friend_candidates(t):
            f_prev = zoom[i - 1]
            psi = self.dls.virtual_index(f_prev, w)
            if psi is None:
                # Claim 3.5's conditions don't hold for this friend; the
                # label simply omits it (the paper's analysis never needs
                # friends outside the virtual neighborhood).
                continue
            dist = self.dls.codec.roundtrip(float(row[w]))
            friends.append((i, j, psi, dist))
            extra_bits += (
                bits_for_count(self.dls.virtual_size(f_prev))
                + self.dls.codec.bits_per_distance
                + bits_for_count(self.scales.nets.levels)
            )
        return TwoModeLabel(node=t, friends=friends, extra_bits=extra_bits)

    # ------------------------------------------------------------------
    # Mode M2 data: anchors, chunk directories, stored paths
    # ------------------------------------------------------------------

    def _build_mode2(self) -> None:
        scales = self.scales
        # owner[(i, ball_index)][target] = owning member of the ball.
        self._m2_owner: Dict[Tuple[int, int], Dict[NodeId, NodeId]] = {}
        # chunk sizes per node for accounting: node -> list of (owner_t pairs)
        self._m2_chunks: Dict[NodeId, List[Tuple[NodeId, NodeId]]] = {
            u: [] for u in range(self.graph.n)
        }
        self._anchor: List[List[Optional[Tuple[int, int, NodeId]]]] = [
            [None] * self._levels_n for _ in range(self.graph.n)
        ]
        for i in range(1, self._levels_n):
            packing = scales.packings[i]
            for b_idx, ball in enumerate(packing.balls):
                h = ball.center
                b_prime = self.metric.ball(h, scales.rui(h, i - 1))
                members = sorted(ball.members)
                targets = sorted(int(x) for x in b_prime)
                owner: Dict[NodeId, NodeId] = {}
                # Contiguous chunks over the id-sorted target list (the
                # subtree-range assignment collapses to this under our
                # full-graph tree realization).
                per = int(math.ceil(len(targets) / len(members)))
                for k, t in enumerate(targets):
                    owner_node = members[min(k // per, len(members) - 1)]
                    owner[t] = owner_node
                    self._m2_chunks[owner_node].append((owner_node, t))
                self._m2_owner[(i, b_idx)] = owner
            # Per-node anchor at this level: the covering ball of Lemma A.1.
            for u in range(self.graph.n):
                ball, _ = packing.covering_ball_for(u)
                b_idx = packing.balls.index(ball)
                self._anchor[u][i] = (i, b_idx, ball.center)

        self._hop_cache: Dict[Tuple[NodeId, NodeId], int] = {}

    def _hops(self, u: NodeId, t: NodeId) -> int:
        key = (u, t)
        if key not in self._hop_cache:
            self._hop_cache[key] = self.first_hops.path_hops(u, t)
        return self._hop_cache[key]

    # ------------------------------------------------------------------
    # M1 identification machinery
    # ------------------------------------------------------------------

    def _resolve_friends(self) -> None:
        """Every target's friends as every node resolves them from the
        target's label, in one batched pass of the Theorem 3.4 decoder:
        t's zooming chain identified in u's label for all (t, u)
        (``dls._chains``), then one ζ lookup for every (u, friend of t)
        whose f_{t,i-1} was identified (``dls._translate``).

        Friends are numbered globally, target t's in
        ``[_friend_ptr[t], _friend_ptr[t+1])``.  Friend f resolves at u to
        pointer (``_res_typ[u, f]``, ``_res_idx[u, f]``) of u's level-i
        segments at stored distance ``_res_dist[u, f]``; to type -1 and a
        NaN distance where it does not.
        """
        n, dls = self.graph.n, self.dls
        counts = [len(label.friends) for label in self.labels]
        self._friend_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        entries = [entry for label in self.labels for entry in label.friends]
        self._friend_level = np.array([e[0] for e in entries], dtype=np.int64)
        psi = np.array([e[2] for e in entries], dtype=np.int64)
        self._friend_dist = np.array([e[3] for e in entries], dtype=float)

        pairs = np.arange(n * n, dtype=np.int64)  # t·n + u
        d, level, _, _, typ, idx = dls._chains(pairs // n, pairs % n)
        chain_len = np.bincount(d, minlength=n * n)
        chain = np.zeros((n * n, self._levels_n, 2), dtype=np.int64)
        chain[d, level] = np.stack([typ, idx], axis=1)

        total = len(entries)
        node = np.repeat(np.arange(n, dtype=np.int64), total)
        friend = np.tile(np.arange(total, dtype=np.int64), n)
        pair = np.repeat(np.arange(n, dtype=np.int64), counts)[friend] * n + node
        lv = self._friend_level[friend]
        q = np.flatnonzero(lv <= chain_len[pair])  # f_{t,i-1} identified at u
        f_ptr = chain[pair[q], lv[q] - 1]
        hit, rows = dls._translate(node[q], lv[q] - 1, f_ptr[:, 0], f_ptr[:, 1], psi[friend[q]])
        q, rows = q[hit], rows[hit]
        w_typ, w_idx = dls._zeta[rows, 3], dls._zeta[rows, 4]
        self._res_typ = np.full((n, total), -1, dtype=np.int8)
        self._res_typ.flat[q] = w_typ
        self._res_idx = np.zeros((n, total), dtype=np.int64)
        self._res_idx.flat[q] = w_idx
        self._res_dist = np.full((n, total), np.nan)
        self._res_dist.flat[q] = dls._distance(node[q], lv[q], w_typ, w_idx)

    def _friend_node(self, u: NodeId, f: int) -> NodeId:
        """The node behind friend f's pointer in u's label."""
        return self.dls.segment_node(
            u, int(self._friend_level[f]), int(self._res_typ[u, f]), int(self._res_idx[u, f])
        )

    def _strictly_good(
        self, u: NodeId, i: int, j: Optional[int], d_uw: float, typ: int
    ) -> bool:
        """The literal (c4)-(c5) conditions of Appendix B and the pointer
        type of (c2), on top of the behavioral d_wt <= δ'·d_uw (see
        ``strict_goodness`` in ``__init__``; (c1)-(c3) hold by successful
        resolution)."""
        dp = self.delta_prime
        scales = self.scales
        r_ui = scales.rui(u, i)
        if 6.0 * r_ui > dp * d_uw:
            return False
        if j is not None:
            j_min = math.floor(
                math.log2(max(1e-300, self.delta / (1 + self.delta) * d_uw / scales.base))
            )
            if j < j_min:
                return False
        # (c5): the beta interval must be non-empty.
        r_prev = scales.r_prev(u, i)
        if not (r_ui < 2.0 * d_uw / (1.0 - self.delta) and r_prev >= 2.0 * d_uw * (1.0 - dp)):
            return False
        # (c2): pointer type must match the friend kind.
        return (typ == X) == (j is None)

    def _select_good(self, u: NodeId, t: NodeId) -> Optional[int]:
        """A (u,i,j)-good intermediate target among t's friends (its global
        friend index), or None.

        Prefers the friend with the smallest stored distance to t (the
        first one on ties).  A friend u cannot resolve has a NaN distance
        and is never good.
        """
        lo, hi = self._friend_ptr[t], self._friend_ptr[t + 1]
        d_uw = self._res_dist[u, lo:hi]
        d_wt = self._friend_dist[lo:hi]
        good = (d_uw > 0) & (d_wt <= self.delta_prime * d_uw)
        if self.strict_goodness:
            friends = self.labels[t].friends
            for k in np.flatnonzero(good):
                i, j = friends[k][:2]
                good[k] = self._strictly_good(
                    u, i, j, float(d_uw[k]), int(self._res_typ[u, lo + k])
                )
        if not good.any():
            return None
        return int(lo + np.argmin(np.where(good, d_wt, np.inf)))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(
        self, source: NodeId, target: NodeId, max_hops: Optional[int] = None
    ) -> RouteResult:
        source, target = as_node_pair(source, target, self.graph.n)
        limit = max_hops if max_hops is not None else 6 * self.graph.n + 32
        label = self.labels[target]
        header = self._header_bits_m1(label)
        path = [source]
        current = source
        # Intermediate-target id: (friend of t, Dest) or None; the friend
        # stands for its (i, j, ψ-index) in t's label.
        inter: Optional[Tuple[int, float]] = None
        switches = 0

        while current != target and len(path) <= limit:
            step: Optional[NodeId] = None
            if inter is not None:
                f, dest = inter
                if self._res_typ[current, f] < 0:
                    inter = None
                    switches += 1
                    delivered = self._route_mode2(current, target, path, limit)
                    return RouteResult(
                        source, target, path, delivered,
                        header_bits=max(header, self._header_bits_m2()),
                        mode_switches=switches,
                    )
                d_cw = float(self._res_dist[current, f])
                if d_cw <= 0:
                    inter = None  # we are at the intermediate target
                else:
                    w = self._friend_node(current, f)
                    nxt = self.first_hops.first_hop(current, w)
                    if d_cw - self.graph.weight(current, nxt) <= 2 * self.delta_prime * dest:
                        inter = None  # close enough: next node reselects
                    step = nxt
            if step is None and current != target:
                f = self._select_good(current, target)
                if f is None:
                    switches += 1
                    delivered = self._route_mode2(current, target, path, limit)
                    return RouteResult(
                        source, target, path, delivered,
                        header_bits=max(header, self._header_bits_m2()),
                        mode_switches=switches,
                    )
                inter = (f, float(self._res_dist[current, f]))
                w = self._friend_node(current, f)
                if w == current:
                    inter = None
                    continue
                step = self.first_hops.first_hop(current, w)
            if step is not None:
                path.append(step)
                current = step
        return RouteResult(
            source, target, path, current == target,
            header_bits=header, mode_switches=switches,
        )

    def _route_mode2(
        self, s: NodeId, target: NodeId, path: List[NodeId], limit: int
    ) -> bool:
        """Mode M2 from s; appends hops to ``path``; True on delivery."""
        # Choose the level from the label-based distance estimate, then
        # fall back to coarser levels until the directory covers the target.
        est = self.dls.estimate(s, target)
        level = 1
        for i in range(self._levels_n - 1, 0, -1):
            if self.scales.r_prev(s, i) >= (4.0 / 3.0) * est:
                level = i
                break
        for i in range(level, 0, -1):
            anchor = self._anchor[s][i]
            if anchor is None:
                continue
            _i, b_idx, h = anchor
            owner = self._m2_owner[(i, b_idx)].get(target)
            if owner is None:
                continue  # directory miss: retry one level coarser
            for leg_target in (h, owner, target):
                current = path[-1]
                while current != leg_target and len(path) <= limit:
                    current = self.first_hops.first_hop(current, leg_target)
                    path.append(current)
                if path[-1] != leg_target:
                    return False
            return True
        return False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _header_bits_m1(self, label: TwoModeLabel) -> int:
        base = self.dls.label_bits(label.node).total_bits + label.extra_bits
        max_t = self.dls.max_virtual_neighbors()
        inter = (
            bits_for_count(self._levels_n)
            + bits_for_count(self.scales.nets.levels)
            + bits_for_count(max_t)
            + self.dls.codec.bits_per_distance
        )
        return base + inter

    def _header_bits_m2(self) -> int:
        n_bits = bits_for_count(self.graph.n)
        max_path_hops = max(
            (self._hops(o, t) for o, t in self._hop_cache), default=0
        )
        link_bits = bits_for_count(self.graph.max_out_degree())
        return 2 * n_bits + max_path_hops * link_bits

    def table_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        link_bits = bits_for_count(self.graph.max_out_degree())
        n_bits = bits_for_count(self.graph.n)

        # Mode M1 share.
        own = self.dls.label_bits(u)
        for name, bits in own.components.items():
            account.add(f"m1_{name}", bits)
        neighbors = len(self.scales.all_neighbors(u))
        account.add("m1_first_hop_pointers", neighbors * link_bits)
        account.add(
            "m1_radii", self._levels_n * self.dls.codec.bits_per_distance
        )

        # Mode M2 share: stored low-hop paths + the id-range labels.
        path_bits = 0
        for owner_node, t in self._m2_chunks[u]:
            path_bits += self._hops(owner_node, t) * link_bits
        account.add("m2_stored_paths", path_bits)
        account.add("m2_id_ranges", 2 * n_bits * max(1, len(self._m2_chunks[u]) and 1))
        return account

    def label_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        for name, bits in self.dls.label_bits(u).components.items():
            account.add(name, bits)
        account.add("friends_and_id", self.labels[u].extra_bits)
        return account
