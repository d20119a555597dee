"""Routing-scheme interface, packet simulation and routing statistics.

The paper's model (§1): a routing scheme consists of (a) labels and tables
per node, (b) a local forwarding algorithm (table + header -> next edge),
(c) a header-construction algorithm (table of u + label of t -> header).
We mirror that structure: concrete schemes implement
:meth:`RoutingScheme.route` by simulating the packet hop by hop, and
expose per-node :meth:`RoutingScheme.table_bits` /
:meth:`RoutingScheme.label_bits` and per-packet header sizes for the
Table 1 / Table 2 reproductions.  Evaluation over a pair set is
:func:`repro.engine.evaluate_routing` on a query plan, which returns the
:class:`RoutingStats` defined here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

from repro._types import NodeId
from repro.bits import SizeAccount
from repro.graphs.graph import WeightedGraph


@dataclass
class RouteResult:
    """Outcome of routing one packet."""

    source: NodeId
    target: NodeId
    path: List[NodeId]
    reached: bool
    header_bits: int = 0
    mode_switches: int = 0

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def length(self, graph: WeightedGraph) -> float:
        """Total weight of the traversed path."""
        return sum(
            graph.weight(self.path[i], self.path[i + 1])
            for i in range(len(self.path) - 1)
        )


class RoutingScheme(abc.ABC):
    """Common interface of all routing schemes in this package."""

    #: the underlying connectivity graph packets travel on
    graph: WeightedGraph

    @abc.abstractmethod
    def route(self, source: NodeId, target: NodeId, max_hops: Optional[int] = None) -> RouteResult:
        """Simulate one packet; never raises on delivery failure (the
        result's ``reached`` flag reports it).  A ``source`` or
        ``target`` that is not an integer id in ``[0, n)`` raises
        :class:`ValueError` (:func:`repro._types.as_node_pair`)."""

    @abc.abstractmethod
    def table_bits(self, u: NodeId) -> SizeAccount:
        """Size of u's routing table."""

    @abc.abstractmethod
    def label_bits(self, u: NodeId) -> SizeAccount:
        """Size of u's routing label."""

    def max_table_bits(self) -> int:
        return max(self.table_bits(u).total_bits for u in range(self.graph.n))

    def max_label_bits(self) -> int:
        return max(self.label_bits(u).total_bits for u in range(self.graph.n))


@dataclass
class RoutingStats:
    """Aggregate quality/size measurements over a set of routed pairs."""

    pairs: int
    delivered: int
    max_stretch: float
    mean_stretch: float
    max_hops: int
    max_header_bits: int
    max_table_bits: int
    max_label_bits: int
    stretches: List[float] = field(default_factory=list, repr=False)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / max(1, self.pairs)
