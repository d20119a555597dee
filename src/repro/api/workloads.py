"""Workload specs, instances, and the registered generators.

A :class:`Workload` is a *hashable value object* naming a registered
generator plus its parameters — the cache key for the facade's memoized
builds.  A :class:`WorkloadInstance` is the realized workload: the
metric (always), the underlying graph (for graph workloads), and
lazily-built shared structures (:class:`ScaleStructure`, doubling
measures, sampled rings) that several schemes on the same instance
reuse instead of rebuilding their own O(n²) machinery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro._types import integer_field
from repro.graphs.generators import grid_graph, knn_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.labeling._scales import ScaleStructure
from repro.metrics.base import MetricSpace
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.nets import NestedNets
from repro.metrics.measure import DoublingMeasure, doubling_measure
from repro.metrics.synthetic import (
    clustered_metric,
    exponential_line,
    grid_metric,
    internet_like_metric,
    random_hypercube_metric,
    ring_metric,
    uniform_line,
)
from repro.api.registry import WORKLOADS, register_workload

#: The instance size used when a caller does not pass ``n``.  Chosen so
#: every workload/scheme combination builds in well under a second on a
#: laptop; pass ``n`` explicitly for anything size-sensitive.  Surfaced
#: as ``repro.api.DEFAULT_N`` and mentioned in size-validation errors.
DEFAULT_N = 96


@dataclass(frozen=True)
class Workload:
    """A named workload plus parameters — hashable, so it is a cache key."""

    name: str
    n: int = DEFAULT_N
    seed: Optional[int] = 0
    #: extra generator parameters, stored sorted for stable hashing
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        name: str,
        n: Optional[int] = None,
        seed: Optional[int] = 0,
        **params: Any,
    ) -> "Workload":
        entry = WORKLOADS.get(name)  # validates the name early
        defaulted = n is None
        n = DEFAULT_N if defaulted else integer_field(n, f"workload {name!r} n")
        if seed is not None:
            seed = integer_field(seed, f"workload {name!r} seed")
        if n < 2:
            origin = (
                f"defaulted from repro.api.DEFAULT_N = {DEFAULT_N}"
                if defaulted
                else "passed explicitly"
            )
            raise ValueError(
                f"workload {name!r} needs n >= 2, got n={n} ({origin}); "
                f"omit n to use DEFAULT_N = {DEFAULT_N}"
            )
        defaults: Mapping[str, Any] = entry.meta["defaults"]
        unknown = set(params) - set(defaults)
        if unknown:
            valid = ", ".join(sorted(defaults)) or "<none>"
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for workload "
                f"{name!r}; valid parameters: {valid}"
            )
        # Normalize against the registry defaults so explicitly passing a
        # default value yields the same (hashable) spec — and cache key —
        # as omitting it.
        full = {**defaults, **params}
        return cls(name=name, n=n, seed=seed,
                   params=tuple(sorted(full.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def display(self) -> str:
        """The sized display form (``"hypercube(n=2000)"``) — what suite
        overrides use to target one scale of a multi-size workload."""
        return f"{self.name}(n={self.n})"

    @staticmethod
    def parse_display(text: str) -> Optional[Tuple[str, int]]:
        """Invert :attr:`display`: ``"hypercube(n=2000)"`` →
        ``("hypercube", 2000)``, None for bare workload names.  The one
        parser for the sized form, so producers and consumers (override
        matching, ``--override-n`` rule remapping) cannot drift apart."""
        match = re.fullmatch(r"(.+)\(n=(\d+)\)", text)
        if match is None:
            return None
        return match.group(1), int(match.group(2))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        out: Dict[str, Any] = {"workload": self.name, "n": self.n, "seed": self.seed}
        out.update(self.kwargs)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Workload":
        data = dict(data)
        name = data.pop("workload")
        return cls.make(
            name, n=data.pop("n", None), seed=data.pop("seed", 0), **data
        )


class WorkloadInstance:
    """A realized workload: metric, optional graph, shared structures."""

    def __init__(
        self,
        spec: Workload,
        metric: MetricSpace,
        graph: Optional[WeightedGraph] = None,
    ) -> None:
        self.spec = spec
        self.metric = metric
        self.graph = graph
        #: bumped by MutableScheme updates; BuildCache refuses to serve a
        #: cached instance whose revision moved past the pristine build
        self.revision = 0
        self._scales: Dict[float, ScaleStructure] = {}
        self._measure: Optional[DoublingMeasure] = None
        self._nets: Optional[NestedNets] = None

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def name(self) -> str:
        return self.spec.name

    # -- shared lazily-built structures --------------------------------
    #
    # These are the expensive O(n²)-ish intermediates several schemes
    # need; memoizing them here is what makes "build two schemes on one
    # workload" cheap.

    def scales(self, delta: float) -> ScaleStructure:
        """The §3 scale structure for ``delta``, built once per delta."""
        key = round(float(delta), 12)
        if key not in self._scales:
            self._scales[key] = ScaleStructure(self.metric, delta=float(delta))
        return self._scales[key]

    def nested_nets(self) -> NestedNets:
        """The canonical nested 2^j-net hierarchy of this metric (scaled by
        the minimum distance so ``G_0`` holds every node), built once and
        shared — e.g. by the ``net-hierarchy`` probe."""
        if self._nets is None:
            metric = self.metric
            self._nets = NestedNets(
                metric,
                levels=metric.log_aspect_ratio() + 1,
                base_radius=metric.min_distance(),
            )
        return self._nets

    def measure(self) -> DoublingMeasure:
        """A doubling measure on the metric (Theorem 1.3), built once."""
        if self._measure is None:
            self._measure = doubling_measure(self.metric)
        return self._measure

    def __repr__(self) -> str:
        return (
            f"WorkloadInstance({self.spec.name!r}, n={self.metric.n}, "
            f"graph={'yes' if self.graph is not None else 'no'})"
        )


def realize(spec: Workload) -> WorkloadInstance:
    """Run the registered generator for ``spec`` (no caching here)."""
    entry = WORKLOADS.get(spec.name)
    kwargs = spec.kwargs
    if entry.meta.get("kind") == "graph":
        # Metric-backend knobs every graph workload shares: they select
        # how the shortest-path metric is realized (dense APSP vs lazy
        # Dijkstra rows under a byte budget), not what the generator makes.
        dense = bool(kwargs.pop("dense", True))
        cache_mb = float(kwargs.pop("cache_mb", 64))
        built = entry.obj(n=spec.n, seed=spec.seed, **kwargs)
        if not isinstance(built, WeightedGraph):
            raise TypeError(
                f"workload {spec.name!r} is registered as kind='graph' but "
                f"built a {type(built).__name__}"
            )
        metric = ShortestPathMetric(
            built, dense=dense, row_cache_bytes=int(cache_mb * 1024 * 1024)
        )
        return WorkloadInstance(spec, metric, graph=built)
    built = entry.obj(n=spec.n, seed=spec.seed, **kwargs)
    if not isinstance(built, MetricSpace):
        raise TypeError(
            f"workload {spec.name!r} is registered as kind='metric' but "
            f"built a {type(built).__name__}"
        )
    return WorkloadInstance(spec, built)


# ----------------------------------------------------------------------
# Registered generators.  Each accepts (n, seed, **params); deterministic
# generators simply ignore the seed so one calling convention fits all.
# ----------------------------------------------------------------------


@register_workload("hypercube", summary="uniform points in the unit cube", dim=2)
def _hypercube(n: int, seed: Optional[int] = 0, dim: int = 2) -> MetricSpace:
    return random_hypercube_metric(n, dim=dim, seed=seed)


@register_workload("grid", summary="the side^dim integer grid (side from n)", dim=2)
def _grid(n: int, seed: Optional[int] = 0, dim: int = 2) -> MetricSpace:
    side = max(2, int(round(n ** (1.0 / dim))))
    return grid_metric(side, dim=dim)


@register_workload(
    "expline", summary="exponential line {base^i}: aspect ratio base^n", base=2.0
)
def _expline(n: int, seed: Optional[int] = 0, base: float = 2.0) -> MetricSpace:
    return exponential_line(n, base=base)


@register_workload(
    "internet", summary="hierarchically clustered internet-like latencies"
)
def _internet(n: int, seed: Optional[int] = 0) -> MetricSpace:
    return internet_like_metric(n, seed=seed)


@register_workload("uline", summary="evenly spaced line (UL-constrained)", spacing=1.0)
def _uline(n: int, seed: Optional[int] = 0, spacing: float = 1.0) -> MetricSpace:
    return uniform_line(n, spacing=spacing)


@register_workload("ring", summary="points evenly spaced on a circle", radius=1.0)
def _ring(n: int, seed: Optional[int] = 0, radius: float = 1.0) -> MetricSpace:
    return ring_metric(n, radius=radius)


@register_workload(
    "clustered", summary="Gaussian clusters around uniform centers",
    clusters=8, dim=3, spread=0.05,
)
def _clustered(
    n: int,
    seed: Optional[int] = 0,
    clusters: int = 8,
    dim: int = 3,
    spread: float = 0.05,
) -> MetricSpace:
    return clustered_metric(n, clusters=clusters, dim=dim, spread=spread, seed=seed)


# Graph workloads share the metric-backend knobs ``dense`` (True: full
# APSP matrix; False: lazy Dijkstra rows, nothing Θ(n²) ever allocated)
# and ``cache_mb`` (row-cache byte budget for the lazy backend) —
# consumed by :func:`realize`, not by the generator.

@register_workload(
    "knn-graph", summary="k-nearest-neighbor geometric graph (doubling)",
    kind="graph", k=4, dense=True, cache_mb=64,
)
def _knn_graph(n: int, seed: Optional[int] = 0, k: int = 4) -> WeightedGraph:
    return knn_geometric_graph(n, k=k, seed=seed)


@register_workload(
    "grid-graph", summary="side^dim grid graph (side from n)",
    kind="graph", dim=2, jitter=0.0, dense=True, cache_mb=64,
)
def _grid_graph(
    n: int, seed: Optional[int] = 0, dim: int = 2, jitter: float = 0.0
) -> WeightedGraph:
    side = max(2, int(round(n ** (1.0 / dim))))
    return grid_graph(side, dim=dim, jitter=jitter, seed=seed)


@register_workload(
    "gap-path", summary="path graph with exponential edge weights (Lemma B.5)",
    kind="graph", base=2.0, dense=True, cache_mb=64,
)
def _gap_path(n: int, seed: Optional[int] = 0, base: float = 2.0) -> WeightedGraph:
    graph = WeightedGraph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1, float(base) ** i)
    return graph
