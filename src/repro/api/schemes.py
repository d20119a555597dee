"""Scheme adapters: one uniform surface over the paper's four problems.

Every adapter implements the :class:`Scheme` protocol —

* ``build(workload, config, seed=...)`` → a fitted scheme,
* ``query(u, v)`` — the problem's natural point query (a distance
  estimate, a routed packet, a small-world lookup, a closest-node
  search),
* ``stats(samples=..., seed=...)`` — a flat dict of the quality/size
  numbers the paper's tables report: the family's structure facts plus
  ``evaluate()`` on ``UniformSamplePlan(size=samples, seed=seed)``,
* ``size_account()`` — the bit-level storage breakdown of the heaviest
  node (the paper's per-node size claims are always worst-case).

Adapters share expensive intermediates through the
:class:`~repro.api.workloads.WorkloadInstance` (scale structures,
doubling measures), so building several schemes on one workload does
not redo the O(n²) groundwork.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from repro._types import NodeId
from repro.bits import SizeAccount, bits_for_count
from repro.rng import SeedLike

from repro.api.configs import (
    BeaconsConfig,
    DLSConfig,
    MeridianConfig,
    OracleConfig,
    RoutingConfig,
    SchemeConfig,
    SmallWorldConfig,
    TriangulationConfig,
)
from repro.api.mutation import UnsupportedUpdate, UpdateReceipt
from repro.api.registry import register_scheme
from repro.api.workloads import WorkloadInstance


@runtime_checkable
class Scheme(Protocol):
    """The uniform build/query surface every adapter implements."""

    def query(self, u: NodeId, v: NodeId) -> Any: ...

    def stats(self, *, samples: int = 200, seed: SeedLike = 0) -> Dict[str, Any]: ...

    def size_account(self) -> SizeAccount: ...


class FittedScheme:
    """Common plumbing: workload + config + the wrapped structure."""

    #: the config dataclass this scheme family accepts
    config_cls = SchemeConfig

    #: whether fitted instances implement the MutableScheme extension
    supports_update = False

    def __init__(
        self, workload: WorkloadInstance, config: SchemeConfig, inner: Any
    ) -> None:
        self.workload = workload
        self.config = config
        #: the underlying paper structure (RingTriangulation, RingRouting, …)
        self.inner = inner

    @classmethod
    def build(
        cls,
        workload: WorkloadInstance,
        config: Optional[SchemeConfig] = None,
        *,
        seed: SeedLike = 0,
    ) -> "FittedScheme":
        if config is None:
            config = cls.config_cls()
        elif isinstance(config, dict):
            config = cls.config_cls.from_dict(config)
        elif not isinstance(config, cls.config_cls):
            raise TypeError(
                f"{cls.__name__} expects a {cls.config_cls.__name__}, "
                f"got {type(config).__name__}"
            )
        fitted = cls._build(workload, config, seed=seed)
        # Recorded so churn probes can rebuild an identical reference
        # structure without threading the seed through separately.
        fitted._build_seed = seed
        return fitted

    @classmethod
    def _build(
        cls, workload: WorkloadInstance, config: SchemeConfig, *, seed: SeedLike
    ) -> "FittedScheme":
        raise NotImplementedError

    def query(self, u: NodeId, v: NodeId) -> Any:
        raise NotImplementedError

    def stats(self, *, samples: int = 200, seed: SeedLike = 0) -> Dict[str, Any]:
        """The family's structure facts plus :meth:`evaluate` on
        ``UniformSamplePlan(size=samples, seed=seed)``."""
        from repro.engine import UniformSamplePlan

        out = self._structure_stats()
        out.update(self.evaluate(UniformSamplePlan(size=samples, seed=seed)))
        return out

    def _structure_stats(self) -> Dict[str, Any]:
        """Facts about the built structure that :meth:`stats` reports
        beside the sampled quality numbers (none by default)."""
        return {}

    def evaluate(self, plan: Any) -> Dict[str, Any]:
        """Quality stats over an engine query plan (see :mod:`repro.engine`).

        Every shipped adapter family overrides this; a subclass that does
        not gets a :class:`NotImplementedError` (there is no meaningful
        generic aggregation over :meth:`query`'s per-family result types).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support plan-driven evaluation"
        )

    def size_account(self) -> SizeAccount:
        raise NotImplementedError

    # -- mutation (the MutableScheme extension; static by default) ------

    def update(self, joins=(), leaves=()) -> UpdateReceipt:
        raise UnsupportedUpdate(
            f"scheme {type(self).__name__} is static: it does not support "
            f"incremental joins/leaves (see api.supports_update)"
        )

    def pending_patch_stats(self):
        raise UnsupportedUpdate(
            f"scheme {type(self).__name__} is static: no patch buffer"
        )

    def compact(self):
        raise UnsupportedUpdate(
            f"scheme {type(self).__name__} is static: nothing to compact"
        )

    def guarantee(self) -> Dict[str, Any]:
        """The scheme's advertised quality guarantee, JSON-serializable.

        The serve layer stamps this dict (plus the structure's content
        hash) on every response, so estimates are *optimistically*
        serveable: the caller knows the certified (stretch, δ) envelope
        without any coordination.  ``stretch`` is a numeric worst-case
        factor when the paper certifies one, else ``None`` with a
        ``stretch_formula`` describing the asymptotic bound.
        """
        return {"kind": "none", "stretch": None}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workload={self.workload.name!r}, "
            f"n={self.workload.n}, config={self.config})"
        )


class _MutableSchemeMixin:
    """The MutableScheme extension for adapters whose inner structure
    implements ``apply_update``/``pending_patch_stats``/``compact``."""

    supports_update = True

    def _registered_name(self) -> str:
        from repro.api.registry import SCHEMES

        for name in SCHEMES.names():
            if SCHEMES.get(name).obj is type(self):
                return name
        return type(self).__name__

    def update(self, joins=(), leaves=()) -> UpdateReceipt:
        """Apply one join/leave batch to the fitted structure.

        Bumps the workload instance's revision counter, which is what
        :class:`~repro.api.facade.BuildCache` re-keys on — a mutated
        instance is never served as if it were the pristine build.
        """
        import time

        inner = self.inner
        if not hasattr(inner, "apply_update"):
            raise UnsupportedUpdate(
                f"{self._registered_name()} built this workload without an "
                f"updatable structure (metric-overlay routing is static); "
                f"use a graph workload for incremental updates"
            )
        joins, leaves = tuple(joins), tuple(leaves)  # read a generator once
        t0 = time.perf_counter()
        merged = inner.apply_update(joins=joins, leaves=leaves)
        update_s = time.perf_counter() - t0
        self.workload.revision = getattr(self.workload, "revision", 0) + 1
        stats = inner.pending_patch_stats()
        return UpdateReceipt(
            scheme=self._registered_name(),
            joins=tuple(sorted(int(x) for x in set(joins))),
            leaves=tuple(sorted(int(x) for x in set(leaves))),
            revision=int(inner.revision),
            active_nodes=stats.active_nodes,
            pending_joins=stats.pending_joins,
            pending_leaves=stats.pending_leaves,
            dirty_rows=stats.dirty_rows,
            merged=bool(merged),
            update_s=float(update_s),
        )

    def pending_patch_stats(self):
        inner = self.inner
        if not hasattr(inner, "pending_patch_stats"):
            raise UnsupportedUpdate(
                f"{self._registered_name()}: no patch buffer on this build"
            )
        return inner.pending_patch_stats()

    def compact(self):
        inner = self.inner
        if not hasattr(inner, "compact"):
            raise UnsupportedUpdate(
                f"{self._registered_name()}: nothing to compact on this build"
            )
        stats = inner.compact()
        self.workload.revision = getattr(self.workload, "revision", 0) + 1
        return stats


# ----------------------------------------------------------------------
# Distance estimation (§3): triangulations, labels, oracle baselines
# ----------------------------------------------------------------------


class _EstimatorScheme(FittedScheme):
    """Shared stats for anything with an ``estimate(u, v)`` method."""

    def query(self, u: NodeId, v: NodeId) -> float:
        """A (1+O(δ))-approximate distance estimate."""
        return float(self.inner.estimate(u, v))

    def _worst_label_account(self) -> SizeAccount:
        """label_bits of the node with the largest label (the paper's
        per-node size claims are worst-case)."""
        n = self.workload.metric.n
        best = max(range(n), key=lambda u: self.inner.label_bits(u).total_bits)
        return self.inner.label_bits(best)

    def evaluate(self, plan: Any) -> Dict[str, Any]:
        """Batched error stats over an engine plan (or explicit pairs)."""
        from repro.engine import evaluate_estimator

        report = evaluate_estimator(self.inner, self.workload.metric, plan)
        return report.to_dict()


@register_scheme(
    "triangulation", problem="distance-estimation",
    summary="Theorem 3.2 (0,δ)-triangulation via rings of neighbors",
)
class TriangulationScheme(_MutableSchemeMixin, _EstimatorScheme):
    config_cls = TriangulationConfig

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.labeling.triangulation import RingTriangulation

        tri = RingTriangulation(
            workload.metric, delta=config.delta,
            scales=workload.scales(config.delta),
        )
        return cls(workload, config, tri)

    def _structure_stats(self) -> Dict[str, Any]:
        tri = self.inner
        return {
            "order": tri.order,
            "mean_order": tri.mean_order(),
            "certified_ratio_bound": tri.certified_ratio_bound(),
        }

    def size_account(self) -> SizeAccount:
        tri = self.inner
        n = self.workload.metric.n
        k = tri.order  # max beacons per node, straight off the CSR offsets
        account = SizeAccount()
        account.add("neighbor_ids", k * bits_for_count(n))
        account.add("neighbor_distances", k * 64)  # exact float64 distances
        return account

    def guarantee(self) -> Dict[str, Any]:
        return {
            "kind": "triangulation-thm3.2",
            "stretch": self.inner.certified_ratio_bound(),
            "delta": self.config.delta,
        }


@register_scheme(
    "beacons", problem="distance-estimation",
    summary="common-beacon (ε,δ)-triangulation baseline [33, 50]",
)
class BeaconsScheme(_MutableSchemeMixin, _EstimatorScheme):
    config_cls = BeaconsConfig

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.labeling.beacons import BeaconTriangulation

        tri = BeaconTriangulation(
            workload.metric, k=config.beacons,
            seed=seed, mantissa_bits=config.mantissa_bits,
        )
        return cls(workload, config, tri)

    def _structure_stats(self) -> Dict[str, Any]:
        return {"order": self.inner.order}

    def size_account(self) -> SizeAccount:
        return self.inner.label_bits(0)

    def guarantee(self) -> Dict[str, Any]:
        # Shared beacon sets give an (ε,δ)-triangulation: the ratio bound
        # holds for most pairs but fails for an ε-fraction (§1).
        return {
            "kind": "beacons-eps-delta",
            "stretch": None,
            "stretch_formula": "1+delta for a (1-eps) fraction of pairs",
            "beacons": self.config.beacons,
        }


@register_scheme(
    "labels", problem="distance-labeling",
    summary="Theorem 3.4 id-free (1+δ)-approximate distance labels",
)
class RingDLSScheme(_EstimatorScheme):
    config_cls = DLSConfig

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.labeling.dls import RingDLS

        dls = RingDLS(
            workload.metric, delta=config.delta,
            scales=workload.scales(config.delta),
            mantissa_bits=config.mantissa_bits,
        )
        return cls(workload, config, dls)

    def _structure_stats(self) -> Dict[str, Any]:
        dls = self.inner
        return {
            "max_label_bits": dls.max_label_bits(),
            "mean_label_bits": dls.mean_label_bits(),
            "max_virtual_neighbors": dls.max_virtual_neighbors(),
        }

    def size_account(self) -> SizeAccount:
        return self._worst_label_account()

    def guarantee(self) -> Dict[str, Any]:
        return {
            "kind": "labels-thm3.4",
            "stretch": None,
            "stretch_formula": "1+O(delta)",
            "delta": self.config.delta,
        }


@register_scheme(
    "labels-tri", problem="distance-labeling",
    summary="Theorem 3.2's corollary DLS (Mendel–Har-Peled bound)",
)
class TriangulationDLSScheme(_EstimatorScheme):
    config_cls = DLSConfig

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.labeling.triangulation import RingTriangulation, TriangulationDLS

        tri = RingTriangulation(
            workload.metric, delta=config.delta,
            scales=workload.scales(config.delta),
        )
        dls = TriangulationDLS(tri, mantissa_bits=config.mantissa_bits)
        return cls(workload, config, dls)

    def _structure_stats(self) -> Dict[str, Any]:
        return {
            "max_label_bits": self.inner.max_label_bits(),
            "order": self.inner.triangulation.order,
        }

    def size_account(self) -> SizeAccount:
        return self._worst_label_account()

    def guarantee(self) -> Dict[str, Any]:
        inner = self.inner
        return {
            "kind": "dls-thm3.2",
            # Quantization inflates the certified triangulation ratio by
            # at most the codec's relative error (round-up encoding).
            "stretch": inner.triangulation.certified_ratio_bound()
            * (1.0 + inner.codec.relative_error),
            "delta": self.config.delta,
            "mantissa_bits": inner.codec.mantissa_bits,
        }


@register_scheme(
    "tz-oracle", problem="distance-labeling",
    summary="Thorup–Zwick (2k−1)-approximate oracle baseline",
)
class OracleScheme(_EstimatorScheme):
    config_cls = OracleConfig

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.labeling.thorup_zwick import ThorupZwickOracle

        oracle = ThorupZwickOracle(
            workload.metric, k=config.k, seed=seed,
            mantissa_bits=config.mantissa_bits,
        )
        return cls(workload, config, oracle)

    def _structure_stats(self) -> Dict[str, Any]:
        return {
            "stretch_bound": self.inner.stretch_bound(),
            "max_label_bits": self.inner.max_label_bits(),
            "max_bunch_size": self.inner.max_bunch_size(),
        }

    def size_account(self) -> SizeAccount:
        return self._worst_label_account()

    def guarantee(self) -> Dict[str, Any]:
        return {
            "kind": "tz-oracle",
            "stretch": float(self.inner.stretch_bound())
            * (1.0 + self.inner.codec.relative_error),
            "k": self.config.k,
        }


# ----------------------------------------------------------------------
# Compact routing (§2, §4)
# ----------------------------------------------------------------------


class _RoutingAdapter(FittedScheme):
    """Runs on graph workloads directly; on metric workloads the scheme
    routes over the self-chosen §4.1 overlay (Table 2's setting)."""

    config_cls = RoutingConfig

    @classmethod
    def _factory(cls, graph, config: RoutingConfig, metric=None):
        raise NotImplementedError

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.routing.metric_overlay import MetricRouting

        if workload.graph is not None:
            inner = cls._factory(workload.graph, config, metric=workload.metric)
            # Lazy metric backend: keep everything matrix-free and let the
            # evaluators take true distances from batched metric queries.
            dense = getattr(workload.metric, "dense", True)
            matrix = workload.metric.matrix if dense else None
        else:
            inner = MetricRouting(
                workload.metric, config.delta,
                scheme_factory=lambda g, _d: cls._factory(g, config),
                style=config.overlay_style,
            )
            matrix = inner.stretch_matrix()
        fitted = cls(workload, config, inner)
        fitted._matrix = matrix
        return fitted

    def query(self, u: NodeId, v: NodeId):
        """Route one packet; returns the :class:`RouteResult`."""
        return self.inner.route(u, v)

    def evaluate(self, plan: Any) -> Dict[str, Any]:
        """Routing stats over an engine plan (or explicit pairs)."""
        from repro.engine import evaluate_routing

        rs = evaluate_routing(
            self.inner, self._matrix, plan, metric=self.workload.metric
        )
        return {
            "pairs": rs.pairs,
            "delivery_rate": rs.delivery_rate,
            "max_stretch": rs.max_stretch,
            "mean_stretch": rs.mean_stretch,
            "max_hops": rs.max_hops,
            "max_header_bits": rs.max_header_bits,
            "max_table_bits": rs.max_table_bits,
            "max_label_bits": rs.max_label_bits,
        }

    def size_account(self) -> SizeAccount:
        inner = self.inner
        n = inner.graph.n
        best = max(
            range(n),
            key=lambda u: inner.table_bits(u).total_bits
            + inner.label_bits(u).total_bits,
        )
        return inner.table_bits(best) + inner.label_bits(best)

    def guarantee(self) -> Dict[str, Any]:
        return {
            "kind": "routing",
            "stretch": None,
            "stretch_formula": "1+O(delta)",
            "delta": self.config.delta,
        }


@register_scheme(
    "route-trivial", problem="routing",
    summary="stretch-1 full shortest-path tables (the §1 strawman)",
)
class TrivialRoutingScheme(_RoutingAdapter):
    @classmethod
    def _factory(cls, graph, config, metric=None):
        from repro.routing.trivial import TrivialRouting

        return TrivialRouting(
            graph,
            dense=getattr(metric, "dense", True),
            row_cache_bytes=getattr(metric, "row_cache_budget", None),
        )

    def guarantee(self) -> Dict[str, Any]:
        return {"kind": "routing-trivial", "stretch": 1.0}


@register_scheme(
    "route-thm2.1", problem="routing",
    summary="Theorem 2.1 rings-over-nets (1+δ)-stretch routing",
)
class RingRoutingScheme(_MutableSchemeMixin, _RoutingAdapter):
    @classmethod
    def _factory(cls, graph, config, metric=None):
        from repro.routing.ring_scheme import RingRouting

        return RingRouting(graph, delta=config.delta, metric=metric)

    def guarantee(self) -> Dict[str, Any]:
        out = super().guarantee()
        out["kind"] = "routing-thm2.1"
        return out


@register_scheme(
    "route-thm4.1", problem="routing",
    summary="Theorem 4.1 routing with distance labels as a black box",
)
class LabelRoutingScheme(_RoutingAdapter):
    @classmethod
    def _factory(cls, graph, config, metric=None):
        from repro.routing.label_scheme import LabelRouting

        return LabelRouting(
            graph, delta=config.delta, estimator=config.estimator,
            metric=metric,
        )


@register_scheme(
    "route-thm4.2", problem="routing",
    summary="Theorem 4.2/B.1 two-mode routing for huge aspect ratios",
)
class TwoModeRoutingScheme(_RoutingAdapter):
    @classmethod
    def _factory(cls, graph, config, metric=None):
        from repro.routing.twomode import TwoModeRouting

        return TwoModeRouting(
            graph, delta=config.delta, metric=metric,
            strict_goodness=config.strict_goodness,
        )


# ----------------------------------------------------------------------
# Searchable small worlds (§5)
# ----------------------------------------------------------------------


class _SmallWorldAdapter(FittedScheme):
    config_cls = SmallWorldConfig

    @classmethod
    def _model(cls, workload, config: SmallWorldConfig, seed):
        raise NotImplementedError

    @classmethod
    def _build(cls, workload, config, *, seed):
        fitted = cls(workload, config, cls._model(workload, config, seed))
        fitted._seed = seed
        fitted._graph = None
        return fitted

    def contact_graph(self):
        """One sampled contact graph, drawn lazily with the build seed."""
        if self._graph is None:
            self._graph = self.inner.sample_contacts(seed=self._seed)
        return self._graph

    def query(self, u: NodeId, v: NodeId):
        """Route one strongly-local query; returns the QueryResult."""
        from repro.smallworld.base import route_query

        return route_query(self.inner, self.contact_graph(), u, v)

    def evaluate(self, plan: Any) -> Dict[str, Any]:
        """Query stats over an engine plan (or explicit pairs)."""
        from repro.smallworld.base import evaluate_model

        sw = evaluate_model(self.inner, self.contact_graph(), plan)
        return {
            "queries": sw.queries,
            "completion_rate": sw.completion_rate,
            "max_hops": sw.max_hops,
            "mean_hops": sw.mean_hops,
            "max_out_degree": sw.max_out_degree,
            "mean_out_degree": sw.mean_out_degree,
        }

    def size_account(self) -> SizeAccount:
        graph = self.contact_graph()
        account = SizeAccount()
        account.add(
            "contact_pointers",
            graph.max_out_degree() * bits_for_count(self.inner.metric.n),
        )
        return account


@register_scheme(
    "sw-5.2a", problem="small-world",
    summary="Theorem 5.2(a) greedy rings (X- and Y-type contacts)",
)
class GreedyRingsScheme(_SmallWorldAdapter):
    @classmethod
    def _model(cls, workload, config, seed):
        from repro.smallworld.rings_greedy import GreedyRingsModel

        return GreedyRingsModel(
            workload.metric, c=config.c, alpha_factor=config.alpha_factor,
            mu=workload.measure(),
        )


@register_scheme(
    "sw-5.2b", problem="small-world",
    summary="Theorem 5.2(b) pruned rings with the non-greedy step (**)",
)
class PrunedRingsScheme(_SmallWorldAdapter):
    @classmethod
    def _model(cls, workload, config, seed):
        from repro.smallworld.rings_pruned import PrunedRingsModel

        return PrunedRingsModel(
            workload.metric, c=config.c, alpha_factor=config.alpha_factor,
            mu=workload.measure(),
        )


@register_scheme(
    "sw-5.5", problem="small-world",
    summary="Theorem 5.5 one long-range link over local contacts",
)
class SingleLinkScheme(_SmallWorldAdapter):
    @classmethod
    def _model(cls, workload, config, seed):
        from repro.metrics.graphmetric import ShortestPathMetric
        from repro.routing.metric_overlay import overlay_for_metric
        from repro.smallworld.single_link import SingleLinkModel

        if workload.graph is not None:
            return SingleLinkModel(
                workload.metric, workload.graph, mu=workload.measure()
            )
        # Metric-only workload: route over the self-chosen rings overlay,
        # whose shortest-path metric is the model's d_G.
        local = overlay_for_metric(workload.metric, delta=0.5)
        return SingleLinkModel(ShortestPathMetric(local), local)


@register_scheme(
    "sw-structures", problem="small-world",
    summary="Kleinberg's group-structures baseline [32]",
)
class GroupStructuresScheme(_SmallWorldAdapter):
    @classmethod
    def _model(cls, workload, config, seed):
        from repro.smallworld.structures import GroupStructuresModel

        return GroupStructuresModel(
            workload.metric, degree_factor=config.degree_factor
        )


@register_scheme(
    "sw-kleinberg", problem="small-world",
    summary="Kleinberg's 2-D grid model [30] (side derived from n)",
)
class KleinbergGridScheme(_SmallWorldAdapter):
    @classmethod
    def _model(cls, workload, config, seed):
        from repro.smallworld.kleinberg_grid import KleinbergGridModel

        side = max(2, int(round(math.sqrt(workload.n))))
        return KleinbergGridModel(side, exponent=config.exponent)


# ----------------------------------------------------------------------
# Object location (§6): Meridian
# ----------------------------------------------------------------------


@register_scheme(
    "meridian", problem="object-location",
    summary="Meridian closest-node discovery over multi-resolution rings",
)
class MeridianScheme(FittedScheme):
    config_cls = MeridianConfig

    @classmethod
    def _build(cls, workload, config, *, seed):
        from repro.meridian.rings import MeridianOverlay

        overlay = MeridianOverlay(
            workload.metric, ring_base=config.ring_base,
            nodes_per_ring=config.nodes_per_ring, seed=seed,
        )
        return cls(workload, config, overlay)

    def query(self, u: NodeId, v: NodeId):
        """Closest-node search started at ``u`` for target ``v``."""
        from repro.meridian.search import closest_node_search

        return closest_node_search(self.inner, u, v, beta=self.config.beta)

    def evaluate(self, plan: Any) -> Dict[str, Any]:
        """Search-quality stats over an engine plan (or explicit pairs)."""
        from repro.engine import resolve_pairs

        approximations = []
        hops = []
        for u, v in resolve_pairs(plan, self.workload.metric).tolist():
            result = self.query(u, v)
            approximations.append(result.approximation)
            hops.append(result.hops)
        exact = sum(1 for a in approximations if a <= 1.0 + 1e-9)
        return {
            "queries": len(approximations),
            "exact_rate": exact / max(1, len(approximations)),
            "max_approximation": max(approximations) if approximations else 1.0,
            "mean_approximation": (
                float(np.mean(approximations)) if approximations else 1.0
            ),
            "mean_hops": float(np.mean(hops)) if hops else 0.0,
            "num_rings": self.inner.num_rings,
            "max_out_degree": self.inner.max_out_degree(),
        }

    def size_account(self) -> SizeAccount:
        overlay = self.inner
        account = SizeAccount()
        id_bits = bits_for_count(self.workload.metric.n)
        worst = max(node.out_degree() for node in overlay.nodes)
        account.add("ring_member_ids", worst * id_bits)
        return account
