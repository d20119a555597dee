"""Routing-scheme interface, packet simulation and evaluation.

The paper's model (§1): a routing scheme consists of (a) labels and tables
per node, (b) a local forwarding algorithm (table + header -> next edge),
(c) a header-construction algorithm (table of u + label of t -> header).
We mirror that structure: concrete schemes implement
:meth:`RoutingScheme.route` by simulating the packet hop by hop, and
expose per-node :meth:`RoutingScheme.table_bits` /
:meth:`RoutingScheme.label_bits` and per-packet header sizes for the
Table 1 / Table 2 reproductions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.engine.plans import PlanLike

from repro._types import NodeId
from repro.bits import SizeAccount
from repro.graphs.graph import WeightedGraph
from repro.rng import SeedLike, ensure_rng


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


def evaluate_scheme(
    scheme: RoutingScheme,
    distance_matrix: np.ndarray,
    pairs: Optional[Iterable[Tuple[NodeId, NodeId]]] = None,
    sample_pairs: Optional[int] = None,
    seed: SeedLike = 0,
    plan: Optional["PlanLike"] = None,
    metric=None,
) -> RoutingStats:
    """Route packets for the planned (or given/sampled) pairs and collect
    stats.

    ``distance_matrix`` supplies the true shortest-path distances used to
    compute stretch.  Pair selection, in precedence order: explicit
    ``pairs``; a query ``plan`` (see :mod:`repro.engine.plans`); the
    legacy ``sample_pairs``/``seed`` uniform sample (bit-for-bit the
    historical behaviour at equal seeds); otherwise every ordered pair.
    Distance-aware plans (stratified) need the underlying
    :class:`~repro.metrics.base.MetricSpace` passed as ``metric``.  The
    evaluation itself runs on the batched engine either way.
    """
    from repro.engine import AllPairsPlan, evaluate_routing

    n = scheme.graph.n
    if pairs is not None:
        chosen: "PlanLike" = np.asarray(
            pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.intp
        ).reshape(-1, 2)
    elif plan is not None:
        chosen = plan
    elif sample_pairs is not None and sample_pairs < n * (n - 1):
        # Legacy sampling: index uniformly without replacement into the
        # u-major ordered-pair enumeration, decoded arithmetically instead
        # of via a materialized Θ(n²) list.
        rng = ensure_rng(seed)
        idx = np.asarray(rng.choice(n * (n - 1), size=sample_pairs, replace=False))
        us = idx // (n - 1)
        k = idx % (n - 1)
        chosen = np.stack([us, k + (k >= us)], axis=1).astype(np.intp)
    else:
        chosen = AllPairsPlan()
    return evaluate_routing(scheme, distance_matrix, chosen, metric=metric)
