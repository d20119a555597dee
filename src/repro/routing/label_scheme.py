"""Theorem 4.1 — a really simple (1+δ)-stretch scheme via distance labels.

The idea: take a 3/2-approximate distance labeling scheme (Theorem 3.4) as
a black box.  Every node u stores, for each scale ``j ∈ [log Δ]``, the
labels of its *j-level neighbors* ``F_j(u) = B_u(2^{j+2}/δ) ∩ F_j`` (F_j a
2^j-net) together with a first-hop pointer each.  The packet header is the
target's label plus the id of the current intermediate target.

Routing: when the intermediate target is reached (or unset), pick the
neighbor v minimizing the label-based distance estimate ``D(L_v, L_t)``;
the proof shows some neighbor lies within δ·d of t, so the chosen v is
within (3/2)δ·d, and intermediate targets geometrically approach t while
the packet follows exact shortest subpaths.

The label estimator is pluggable (``estimator=``):

* ``"ring"`` — Theorem 3.4's id-free labels (the paper's choice);
* ``"triangulation"`` — Theorem 3.2 + ids (the [44]-style DLS);
* ``"exact"`` — true distances (ablation baseline: isolates the routing
  machinery from label error).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair
from repro.bits import SizeAccount, bits_for_count
from repro.core.packed import pack_csr
from repro.core.rings import net_rings
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import FirstHopTable
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.nets import NestedNets
from repro.routing.base import RouteResult, RoutingScheme


class LabelRouting(RoutingScheme):
    """The Theorem 4.1 scheme."""

    def __init__(
        self,
        graph: WeightedGraph,
        delta: float,
        estimator: str = "triangulation",
        metric: Optional[ShortestPathMetric] = None,
        label_delta: float = 0.45,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.graph = graph
        self.delta = delta
        self.metric = metric if metric is not None else ShortestPathMetric(graph)
        self.first_hops = FirstHopTable(
            graph,
            dense=getattr(self.metric, "dense", True),
            row_cache_bytes=getattr(self.metric, "row_cache_budget", None),
        )
        self.estimator_kind = estimator
        self._init_estimator(estimator, label_delta)

        # Scales: F_j = 2^j-nets (ascending, scaled by the min distance).
        min_d = self.metric.min_distance()
        diameter = self.metric.diameter()
        self.levels = int(math.ceil(math.log2(diameter / min_d))) + 2
        self.nets = NestedNets(self.metric, levels=self.levels, base_radius=min_d)
        self._ring_radius = [
            min_d * (2.0 ** (j + 2)) / delta for j in range(self.levels)
        ]
        # Rings packed into one CSR block (one pass over the distance rows),
        # then reduced to the per-node neighbor sets F(u) = ∪_j F_j(u) \ {u}
        # as a second CSR block: one `np.unique` over each node's
        # contiguous member span instead of Python set unions.  Only the
        # deduped union is kept — the per-level block is construction
        # scaffolding and is freed here.
        rings_packed = net_rings(
            self.metric, self.nets,
            lambda j: self._ring_radius[j],
        )
        nbr_chunks = []
        for u in range(graph.n):
            span = rings_packed._node_span(u)
            nbr_chunks.append(np.unique(span[span != u]))
        self._nbr_indptr, self._nbr_members = pack_csr(nbr_chunks)

    # -- label machinery ---------------------------------------------------

    def _init_estimator(self, estimator: str, label_delta: float) -> None:
        self._dls = None
        if estimator == "exact":
            # True distances straight off the metric (works on the lazy
            # backend too: one cached row per queried target); with exact
            # distances the "label" degenerates to a node id.
            self._label_payload_bits = bits_for_count(self.metric.n)
        elif estimator == "triangulation":
            from repro.labeling.triangulation import RingTriangulation, TriangulationDLS

            tri = RingTriangulation(self.metric, delta=label_delta)
            dls = TriangulationDLS(tri)
            self._dls = dls
            self._label_payload_bits = dls.max_label_bits()
        elif estimator == "ring":
            from repro.labeling.dls import RingDLS

            dls = RingDLS(self.metric, delta=label_delta)
            self._dls = dls
            self._label_payload_bits = dls.max_label_bits()
        else:
            raise ValueError(f"unknown estimator {estimator!r}")

    # -- routing --------------------------------------------------------------

    def _nbr_arr(self, u: NodeId) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (a CSR slice view)."""
        return self._nbr_members[self._nbr_indptr[u] : self._nbr_indptr[u + 1]]

    def neighbors_of(self, u: NodeId) -> Tuple[NodeId, ...]:
        return tuple(int(x) for x in self._nbr_arr(u))

    def max_out_degree(self) -> int:
        """Overlay out-degree (the Table 2 quantity)."""
        return int(np.diff(self._nbr_indptr).max())

    def _estimate_block(self, vs: np.ndarray, target: NodeId) -> np.ndarray:
        """``D(L_v, L_t)`` for a whole neighbor array at once."""
        if self._dls is not None:
            return self._dls.estimate_many(
                vs, np.full(vs.size, target, dtype=np.intp)
            )
        row = self.metric.distances_from(target)
        return np.asarray(row, dtype=float)[vs]

    def _select_intermediate(self, u: NodeId, target: NodeId) -> Optional[NodeId]:
        """The neighbor minimizing D(L_v, L_t) (ties to smaller id).

        One vectorized label-estimate block over u's ring members — the
        hot per-hop loop of Theorem 4.1 — instead of a Python loop of
        scalar ``estimate`` calls.  ``argmin`` on the ascending neighbor
        array keeps the legacy smallest-id tie-breaking.
        """
        vs = self._nbr_arr(u)
        if vs.size == 0:
            return None
        ests = self._estimate_block(vs, target)
        if not np.any(np.isfinite(ests)):
            # All-infinite estimates: the legacy scan never replaced its
            # initial None, so no intermediate target exists.
            return None
        return int(vs[int(np.argmin(ests))])

    def _is_neighbor(self, u: NodeId, v: NodeId) -> bool:
        vs = self._nbr_arr(u)
        idx = int(np.searchsorted(vs, v))
        return idx < vs.size and int(vs[idx]) == v

    def route(
        self, source: NodeId, target: NodeId, max_hops: Optional[int] = None
    ) -> RouteResult:
        source, target = as_node_pair(source, target, self.graph.n)
        limit = max_hops if max_hops is not None else 4 * self.graph.n + 16
        header = self._header_bits()
        path = [source]
        current = source
        intermediate: Optional[NodeId] = None
        while current != target and len(path) <= limit:
            if intermediate is None or intermediate == current:
                intermediate = self._select_intermediate(current, target)
                if intermediate is None or intermediate == current:
                    break
            if not self._is_neighbor(current, intermediate) and intermediate != target:
                # The invariant "t' stays a j-level neighbor along the
                # shortest path" failed numerically; reselect.
                intermediate = self._select_intermediate(current, target)
                if intermediate is None or intermediate == current:
                    break
            nxt = self.first_hops.first_hop(current, intermediate)
            path.append(nxt)
            current = nxt
        return RouteResult(
            source=source,
            target=target,
            path=path,
            reached=current == target,
            header_bits=header,
        )

    # -- accounting --------------------------------------------------------

    def _header_bits(self) -> int:
        # Header = label of t + id of the intermediate target.
        return self._label_payload_bits + bits_for_count(self.graph.n)

    def table_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        k = int(self._nbr_indptr[u + 1] - self._nbr_indptr[u])
        link_bits = bits_for_count(self.graph.max_out_degree())
        account.add("neighbor_labels", k * self._label_payload_bits)
        account.add("first_hop_pointers", k * link_bits)
        account.add("neighbor_ids", k * bits_for_count(self.graph.n))
        return account

    def label_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        account.add("distance_label", self._label_payload_bits)
        account.add("global_id", bits_for_count(self.graph.n))
        return account
