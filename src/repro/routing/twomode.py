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


from repro._types import NodeId, as_node_pair
from repro.bits import SizeAccount, bits_for_count
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import FirstHopTable
from repro.labeling.dls import NodeLabel, RingDLS, SegmentPointer
from repro.metrics.graphmetric import ShortestPathMetric
from repro.routing.base import RouteResult, RoutingScheme

#: A friend entry in the routing label: (scale i, net level j or None for
#: the x-friend, ψ-index in f_{t,i-1}'s virtual enumeration, stored
#: distance from t).
FriendEntry = Tuple[int, Optional[int], int, float]


@dataclass
class TwoModeLabel:
    """Routing label of a target node."""

    node: NodeId
    base: NodeLabel
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
        base = self.dls.labels[t]
        zoom = self.scales.zooming_sequence(t)
        row = self.metric.distances_from(t)
        friends: List[FriendEntry] = []
        extra_bits = bits_for_count(self.graph.n)  # ID(t)
        for i, j, w in self._friend_candidates(t):
            f_prev = zoom[i - 1]
            psi = self.dls._virtual_index[f_prev].get(w)
            if psi is None:
                # Claim 3.5's conditions don't hold for this friend; the
                # label simply omits it (the paper's analysis never needs
                # friends outside the virtual neighborhood).
                continue
            dist = self.dls.codec.roundtrip(float(row[w]))
            friends.append((i, j, psi, dist))
            extra_bits += (
                bits_for_count(len(self.dls._virtual[f_prev]))
                + self.dls.codec.bits_per_distance
                + bits_for_count(self.scales.nets.levels)
            )
        return TwoModeLabel(node=t, base=base, friends=friends, extra_bits=extra_bits)

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

    def _identify_chain(
        self, u: NodeId, label: TwoModeLabel
    ) -> List[SegmentPointer]:
        """Pointers of f_t0..f_tk inside u's enumerations (k = deepest)."""
        pairs = RingDLS._chain(label.base, self.dls.labels[u])
        return [pv for (_pa, pv) in pairs]

    def _resolve_friend(
        self, u: NodeId, label: TwoModeLabel, chain: List[SegmentPointer],
        i: int, psi: int,
    ) -> Optional[SegmentPointer]:
        """Pointer of a friend (given by ψ in f_{t,i-1}'s enumeration)
        inside u's enumerations, via ζ_{u,i-1}."""
        if i - 1 >= len(chain) or i - 1 < 0:
            return None
        f_ptr = chain[i - 1]
        table = self.dls.labels[u].zeta.get(i - 1, {})
        return table.get((f_ptr, psi))

    def _distance_at(self, u: NodeId, ptr: SegmentPointer) -> float:
        return self.dls.labels[u].distance_at(ptr)

    def _is_good(
        self, u: NodeId, i: int, j: Optional[int], d_uw: float, d_wt: float,
        ptr: SegmentPointer,
    ) -> bool:
        """Goodness of an intermediate target (conditions (c1)-(c3) hold by
        successful resolution; see ``strict_goodness`` in ``__init__``)."""
        dp = self.delta_prime
        scales = self.scales
        if d_uw <= 0:
            return False
        if d_wt > dp * d_uw:
            return False
        if not self.strict_goodness:
            return True
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
        typ = ptr[0]
        if j is None and typ != "X":
            return False
        if j is not None and typ != "Y":
            return False
        return True

    def _select_good(
        self, u: NodeId, label: TwoModeLabel, chain: List[SegmentPointer]
    ) -> Optional[Tuple[int, Optional[int], int, float, SegmentPointer]]:
        """A (u,i,j)-good intermediate target, or None.

        Prefers the friend with the smallest stored distance to t.
        """
        best: Optional[Tuple[int, Optional[int], int, float, SegmentPointer]] = None
        best_score = float("inf")
        for i, j, psi, d_wt in label.friends:
            ptr = self._resolve_friend(u, label, chain, i, psi)
            if ptr is None:
                continue
            d_uw = self._distance_at(u, ptr)
            if not self._is_good(u, i, j, d_uw, d_wt, ptr):
                continue
            if d_wt < best_score:
                best_score = d_wt
                best = (i, j, psi, d_uw, ptr)
        return best

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
        # Intermediate-target id: (i, j, psi, Dest) or None.
        inter: Optional[Tuple[int, Optional[int], int, float]] = None
        switches = 0

        while current != target and len(path) <= limit:
            chain = self._identify_chain(current, label)
            step: Optional[NodeId] = None
            if inter is not None:
                ptr = self._resolve_friend(current, label, chain, inter[0], inter[2])
                if ptr is None:
                    inter = None
                    switches += 1
                    delivered = self._route_mode2(current, target, path, limit)
                    return RouteResult(
                        source, target, path, delivered,
                        header_bits=max(header, self._header_bits_m2()),
                        mode_switches=switches,
                    )
                d_cw = self._distance_at(current, ptr)
                if d_cw <= 0:
                    inter = None  # we are at the intermediate target
                else:
                    w = self._segment_node(current, ptr)
                    nxt = self.first_hops.first_hop(current, w)
                    if d_cw - self.graph.weight(current, nxt) <= 2 * self.delta_prime * inter[3]:
                        inter = None  # close enough: next node reselects
                    step = nxt
            if step is None and current != target:
                choice = self._select_good(current, label, chain)
                if choice is None:
                    switches += 1
                    delivered = self._route_mode2(current, target, path, limit)
                    return RouteResult(
                        source, target, path, delivered,
                        header_bits=max(header, self._header_bits_m2()),
                        mode_switches=switches,
                    )
                i, j, psi, d_uw, ptr = choice
                inter = (i, j, psi, d_uw)
                w = self._segment_node(current, ptr)
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

    def _segment_node(self, u: NodeId, ptr: SegmentPointer) -> NodeId:
        """The physical node behind a segment pointer of u (simulation
        helper; a real node resolves pointers to its first-hop slots)."""
        typ, level, idx = ptr
        members = (
            self.scales.x_neighbors(u, level)
            if typ == "X"
            else self.scales.y_neighbors(u, level)
        )
        return members[idx]

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
        base = label.base.size.total_bits + label.extra_bits
        max_t = max(len(t) for t in self.dls._virtual)
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
        own = self.dls.labels[u].size
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
        label = self.labels[u]
        for name, bits in label.base.size.components.items():
            account.add(name, bits)
        account.add("friends_and_id", label.extra_bits)
        return account
