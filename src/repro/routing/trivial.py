"""The stretch-1 baseline: full shortest-path routing tables.

"In a trivial stretch-1 routing scheme, each node stores the full routing
table of the all-pairs shortest paths algorithm.  However, this routing
table takes up Ω(n log n) bits, which does not scale well" (§1).  This is
the baseline every compact scheme is compared against in the Table 1
reproduction.
"""

from __future__ import annotations

from typing import Optional

from repro._types import NodeId, as_node_pair
from repro.bits import SizeAccount, bits_for_count
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import FirstHopTable
from repro.routing.base import RouteResult, RoutingScheme


class TrivialRouting(RoutingScheme):
    """Every node stores a first-hop link for every target.

    ``dense=False`` keeps the *simulation* memory-bounded at large n by
    routing on lazy target-keyed first-hop rows; the scheme's accounted
    table size (the Ω(n log n) bits the paper criticizes) is unchanged —
    it is a formula, not a materialized array.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        dense: bool = True,
        row_cache_bytes: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.first_hops = FirstHopTable(
            graph, dense=dense, row_cache_bytes=row_cache_bytes
        )

    def route(
        self, source: NodeId, target: NodeId, max_hops: Optional[int] = None
    ) -> RouteResult:
        source, target = as_node_pair(source, target, self.graph.n)
        limit = max_hops if max_hops is not None else self.graph.n + 1
        path = [source]
        current = source
        header = bits_for_count(self.graph.n)  # header = target id
        while current != target and len(path) <= limit:
            current = self.first_hops.first_hop(current, target)
            path.append(current)
        return RouteResult(
            source=source,
            target=target,
            path=path,
            reached=current == target,
            header_bits=header,
        )

    def to_arrays(self) -> tuple:
        """(meta, arrays): the graph adjacency plus the first-hop table."""
        fh_meta, fh_arrays = self.first_hops.to_arrays()
        arrays = dict(self.graph.to_adjacency_arrays())
        arrays.update(fh_arrays)
        return {"first_hops": fh_meta}, arrays

    @classmethod
    def from_arrays(
        cls,
        meta: dict,
        arrays: dict,
        n: int,
        row_cache_bytes: Optional[int] = None,
    ) -> "TrivialRouting":
        """Rehydrate an n-node scheme from :meth:`to_arrays` (no Dijkstra
        rerun for the dense backend; the lazy backend recomputes rows on
        demand).  The adjacency is checked first."""
        graph = WeightedGraph.from_adjacency_arrays(arrays, n)
        scheme = cls.__new__(cls)
        scheme.graph = graph
        scheme.first_hops = FirstHopTable.from_arrays(
            graph, meta["first_hops"], arrays, row_cache_bytes=row_cache_bytes
        )
        return scheme

    def table_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        n = self.graph.n
        # One link index per possible target (including a null for self).
        account.add(
            "full_first_hop_table", n * bits_for_count(self.graph.max_out_degree())
        )
        return account

    def label_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        account.add("global_id", bits_for_count(self.graph.n))
        return account
