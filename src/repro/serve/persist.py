"""Save / load fitted paper schemes through the container format.

``save_structure(fitted, path)`` snapshots a fitted scheme's *queryable*
state — the CSR label/ring arrays, radii, first-hop tables and codec
parameters each ``inner`` structure inventories via ``to_arrays()`` —
into one :mod:`repro.serve.container` file.  ``load_structure(path)``
reopens it via ``np.memmap`` with zero rebuild: no nets, no Dijkstra, no
quantization passes.  Loaded schemes answer ``estimate``/``route``
bit-for-bit like the in-memory originals.

Loaded estimator schemes are *detached*: they carry a
:class:`DetachedMetric` that knows ``n`` and the distance extremes (so
size accounting and codecs keep working) but raises
:class:`DetachedStructureError` on any true-distance query — serving
estimates never needs those, and silently rebuilding an O(n²) metric is
exactly what this layer exists to avoid.  Loaded routing schemes keep
their full graph and get a lazy shortest-path metric, so even
plan-driven evaluation works after a load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.serve.container import (
    Container,
    ContainerError,
    read_container,
    write_container,
)

__all__ = [
    "DetachedMetric",
    "DetachedStructureError",
    "UnsupportedSchemeError",
    "PERSISTABLE_SCHEMES",
    "load_structure",
    "save_structure",
]

PathLike = Union[str, Path]

#: Scheme names (api registry keys) that round-trip through containers.
PERSISTABLE_SCHEMES = (
    "triangulation",
    "beacons",
    "labels",
    "labels-tri",
    "tz-oracle",
    "route-trivial",
    "route-thm2.1",
)

_ESTIMATOR_SCHEMES = PERSISTABLE_SCHEMES[:5]
_ROUTING_SCHEMES = PERSISTABLE_SCHEMES[5:]


class UnsupportedSchemeError(ValueError):
    """The fitted scheme has no container round-trip (yet)."""


class DetachedStructureError(RuntimeError):
    """A loaded structure was asked for data that was not persisted."""


from repro.metrics.base import MetricSpace


class DetachedMetric(MetricSpace):
    """Metric stand-in for structures loaded without their point data.

    Knows ``n`` and the (min distance, diameter) extremes — which is all
    codecs, size accounting and the estimate paths consult — and raises
    a clear error on any true-distance query (``distances_from`` and
    everything the base class derives from it).
    """

    def __init__(self, n: int, min_distance: float, diameter: float) -> None:
        super().__init__()
        self._n = int(n)
        # Pre-seeding the extremes makes diameter()/min_distance() (and
        # the codecs built from them) work without any distance rows.
        self._extremes = (float(min_distance), float(diameter))

    @property
    def n(self) -> int:
        return self._n

    def distances_from(self, u):
        raise DetachedStructureError(
            "this structure was loaded from disk without its metric; "
            "true-distance queries would silently rebuild O(n^2) data. "
            "Rebuild the workload with api.build(...) if you need them."
        )

    def __repr__(self) -> str:
        return f"DetachedMetric(n={self._n})"


def _scheme_name(fitted) -> str:
    from repro.api.registry import SCHEMES

    for name in SCHEMES.names():
        if type(fitted) is SCHEMES.get(name).obj:
            return name
    raise UnsupportedSchemeError(
        f"{type(fitted).__name__} is not a registered scheme adapter"
    )


def save_structure(fitted, path: PathLike) -> str:
    """Write a fitted scheme to ``path``; returns the content hash.

    Supported schemes: {schemes}.  Anything else (metric-overlay
    routing, small worlds, Meridian) raises
    :class:`UnsupportedSchemeError`.
    """
    name = _scheme_name(fitted)
    if name not in PERSISTABLE_SCHEMES:
        raise UnsupportedSchemeError(
            f"scheme {name!r} has no persistence codec; supported: "
            f"{', '.join(PERSISTABLE_SCHEMES)}"
        )
    if name in _ROUTING_SCHEMES and fitted.workload.graph is None:
        raise UnsupportedSchemeError(
            f"scheme {name!r} was built over a self-chosen metric overlay; "
            "only graph-workload routing structures are persistable"
        )
    inner_meta, arrays = fitted.inner.to_arrays()
    metric = fitted.workload.metric
    meta: Dict[str, Any] = {
        "scheme": name,
        "config": fitted.config.to_dict(),
        "workload": fitted.workload.spec.to_dict(),
        "guarantee": fitted.guarantee(),
        "metric": {
            "n": int(metric.n),
            "min_distance": float(metric.min_distance()),
            "diameter": float(metric.diameter()),
        },
        "inner": inner_meta,
    }
    return write_container(path, kind="scheme", meta=meta, arrays=arrays)


def _inner_from_container(
    name: str,
    container: Container,
    metric: Optional[DetachedMetric],
    row_cache_bytes=None,
):
    """The fitted scheme's inner structure; a :class:`ContainerError`
    raised while checking its arrays is re-raised naming the file."""
    try:
        return _rehydrate(name, container, metric, row_cache_bytes)
    except ContainerError as err:
        raise ContainerError(f"{container.path}: {err}") from err


def _rehydrate(name, container, metric, row_cache_bytes):
    meta = container.meta["inner"]
    arrays = container.arrays
    if name == "triangulation":
        from repro.labeling.triangulation import RingTriangulation

        return RingTriangulation.from_arrays(metric, meta, arrays)
    if name == "beacons":
        from repro.labeling.beacons import BeaconTriangulation

        return BeaconTriangulation.from_arrays(metric, meta, arrays)
    if name == "labels":
        from repro.labeling.dls import RingDLS

        return RingDLS.from_arrays(metric, meta, arrays)
    if name == "labels-tri":
        from repro.labeling.triangulation import TriangulationDLS

        return TriangulationDLS.from_arrays(metric, meta, arrays)
    if name == "tz-oracle":
        from repro.labeling.thorup_zwick import ThorupZwickOracle

        return ThorupZwickOracle.from_arrays(metric, meta, arrays)
    if name == "route-trivial":
        from repro.routing.trivial import TrivialRouting

        return TrivialRouting.from_arrays(
            meta, arrays, int(container.meta["metric"]["n"]),
            row_cache_bytes=row_cache_bytes,
        )
    if name == "route-thm2.1":
        from repro.routing.ring_scheme import RingRouting

        return RingRouting.from_arrays(
            meta, arrays, int(container.meta["metric"]["n"]),
            row_cache_bytes=row_cache_bytes,
        )
    raise UnsupportedSchemeError(f"no load codec for scheme {name!r}")


def _detached_metric(container: Container) -> DetachedMetric:
    m = container.meta["metric"]
    return DetachedMetric(m["n"], m["min_distance"], m["diameter"])


def load_structure(
    path: PathLike,
    mmap: bool = True,
    verify: bool = False,
    row_cache_bytes: Optional[int] = None,
):
    """Open a structure saved by :func:`save_structure`.

    Returns the fitted scheme adapter, annotated with
    ``structure_hash`` / ``structure_path`` / ``container`` attributes.
    ``mmap=True`` keeps array segments on the shared page cache;
    ``verify=True`` recomputes the content hash first (reads the whole
    file).  ``row_cache_bytes`` bounds the lazy caches of reloaded
    routing schemes.
    """
    container = read_container(path, mmap=mmap, verify=verify)
    if container.kind != "scheme":
        raise ContainerError(
            f"{container.path}: holds a {container.kind!r} container, not a "
            "fitted scheme (use repro.metrics.io.load_metric for metrics)"
        )
    from repro.api.registry import SCHEMES
    from repro.api.workloads import Workload, WorkloadInstance

    name = str(container.meta.get("scheme", ""))
    if name not in SCHEMES:
        raise ContainerError(
            f"{container.path}: unknown scheme {name!r} (written by a newer "
            "repro?)"
        )
    scheme_cls = SCHEMES.get(name).obj
    config = scheme_cls.config_cls.from_dict(container.meta["config"])
    spec = Workload.from_dict(dict(container.meta["workload"]))

    if name in _ROUTING_SCHEMES:
        inner = _inner_from_container(name, container, None, row_cache_bytes)
        workload_metric = getattr(inner, "metric", None)
        if workload_metric is None:
            from repro.metrics.base import DEFAULT_ROW_CACHE_BYTES
            from repro.metrics.graphmetric import ShortestPathMetric

            workload_metric = ShortestPathMetric(
                inner.graph,
                dense=False,
                row_cache_bytes=DEFAULT_ROW_CACHE_BYTES
                if row_cache_bytes is None
                else row_cache_bytes,
            )
        instance = WorkloadInstance(spec, workload_metric, graph=inner.graph)
        fitted = scheme_cls(instance, config, inner)
        # No dense matrix: plan evaluation takes true distances from the
        # lazy shortest-path metric, as for lazily-built schemes.
        fitted._matrix = None
    else:
        metric = _detached_metric(container)
        inner = _inner_from_container(name, container, metric, row_cache_bytes)
        instance = WorkloadInstance(spec, metric, graph=None)
        fitted = scheme_cls(instance, config, inner)

    fitted.structure_hash = container.content_hash
    fitted.structure_path = Path(path)
    fitted.container = container
    return fitted


save_structure.__doc__ = save_structure.__doc__.format(
    schemes=", ".join(PERSISTABLE_SCHEMES)
)
