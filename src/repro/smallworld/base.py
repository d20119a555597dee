"""Small-world model interface, contact graphs and the routing driver.

The driver enforces the *strongly local* discipline of §5: a model's
:meth:`SmallWorldModel.next_hop` receives only the current node's contact
list with (distance-to-contact, contact-to-target-distance) pairs — never
the full metric.  Queries that stall (no admissible hop) or exceed the hop
budget are recorded as failures, matching the paper's "with high
probability all queries complete" framing: we measure the failure rate
instead of looping forever.  :func:`evaluate_model` routes the pairs of
an engine query plan (:mod:`repro.engine.plans`) over a contact graph
the caller draws with :meth:`SmallWorldModel.sample_contacts`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId
from repro.engine.plans import PlanLike, resolve_pairs
from repro.metrics.base import MetricSpace
from repro.rng import SeedLike


@dataclass
class ContactGraph:
    """A sampled directed graph of contacts (out-links per node)."""

    contacts: List[Tuple[NodeId, ...]]

    def out_degree(self, u: NodeId) -> int:
        return len(self.contacts[u])

    def max_out_degree(self) -> int:
        return max(len(c) for c in self.contacts)

    def mean_out_degree(self) -> float:
        return float(np.mean([len(c) for c in self.contacts]))


@dataclass
class QueryResult:
    """One routed query."""

    source: NodeId
    target: NodeId
    path: List[NodeId]
    reached: bool

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class SmallWorldModel(abc.ABC):
    """Contact distribution + strongly local routing algorithm."""

    metric: MetricSpace

    @abc.abstractmethod
    def sample_contacts(self, seed: SeedLike = None) -> ContactGraph:
        """Draw one contact graph (out-links chosen independently per node)."""

    def next_hop(
        self,
        u: NodeId,
        d_ut: float,
        contacts: Sequence[NodeId],
        d_uc: np.ndarray,
        d_ct: np.ndarray,
    ) -> Optional[NodeId]:
        """Choose the next hop (strongly local: only the arrays supplied).

        Default: plain greedy — the contact closest to the target,
        provided it makes strict progress.
        """
        if len(contacts) == 0:
            return None
        k = int(np.argmin(d_ct))
        if d_ct[k] < d_ut:
            return contacts[k]
        return None


def route_query(
    model: SmallWorldModel,
    graph: ContactGraph,
    source: NodeId,
    target: NodeId,
    max_hops: Optional[int] = None,
) -> QueryResult:
    """Run one query under the strongly-local discipline."""
    metric = model.metric
    limit = max_hops if max_hops is not None else 8 * metric.n
    path = [source]
    current = source
    row_t = metric.distances_from(target)
    while current != target and len(path) <= limit:
        contacts = graph.contacts[current]
        row_u = metric.distances_from(current)
        idx = np.asarray(contacts, dtype=int)
        d_uc = row_u[idx] if len(contacts) else np.empty(0)
        d_ct = row_t[idx] if len(contacts) else np.empty(0)
        nxt = model.next_hop(current, float(row_t[current]), contacts, d_uc, d_ct)
        if nxt is None or nxt == current:
            break
        path.append(nxt)
        current = nxt
    return QueryResult(source=source, target=target, path=path, reached=current == target)


@dataclass
class SmallWorldStats:
    """Aggregate query statistics for one sampled contact graph."""

    queries: int
    completed: int
    max_hops: int
    mean_hops: float
    max_out_degree: int
    mean_out_degree: float
    hop_counts: List[int] = field(default_factory=list, repr=False)

    @property
    def completion_rate(self) -> float:
        return self.completed / max(1, self.queries)


def evaluate_model(
    model: SmallWorldModel,
    graph: ContactGraph,
    plan: PlanLike,
    max_hops: Optional[int] = None,
) -> SmallWorldStats:
    """Route one query per planned pair over ``graph`` and collect hop
    statistics."""
    queries = resolve_pairs(plan, model.metric).tolist()
    hops: List[int] = []
    completed = 0
    for s, t in queries:
        result = route_query(model, graph, s, t, max_hops=max_hops)
        if result.reached:
            completed += 1
            hops.append(result.hops)
    return SmallWorldStats(
        queries=len(queries),
        completed=completed,
        max_hops=max(hops) if hops else 0,
        mean_hops=float(np.mean(hops)) if hops else float("inf"),
        max_out_degree=graph.max_out_degree(),
        mean_out_degree=graph.mean_out_degree(),
        hop_counts=hops,
    )
