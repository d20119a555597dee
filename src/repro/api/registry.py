"""String-keyed registries for workloads and schemes.

The paper solves four problems with one structure; the library mirrors
that by making every workload generator and every scheme discoverable
under a short stable name.  The generic machinery (:class:`Registry`,
:class:`Entry`) lives in :mod:`repro.registry` so lower layers — the
query engine registers its evaluation plans the same way — can use it
without importing the API package; this module re-exports it for
backward compatibility.

Two module-level registries are the single source of truth here:

* :data:`WORKLOADS` — workload builders (see :mod:`repro.api.workloads`);
* :data:`SCHEMES` — scheme adapters (see :mod:`repro.api.schemes`).
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.registry import Entry, Registry

__all__ = [
    "Entry",
    "Registry",
    "WORKLOADS",
    "SCHEMES",
    "register_workload",
    "register_scheme",
    "workload_names",
    "scheme_names",
]

#: Workload generators, keyed by the names the CLI exposes.
WORKLOADS = Registry("workload")

#: Scheme adapters for the paper's problems, keyed by stable names.
SCHEMES = Registry("scheme")


def register_workload(
    name: str, *, summary: str = "", kind: str = "metric", **defaults: Any
) -> Callable:
    """Decorator: register a workload builder.

    ``kind`` is ``"metric"`` (builder returns a MetricSpace) or
    ``"graph"`` (builder returns a WeightedGraph; its shortest-path
    metric is derived lazily).  ``defaults`` document the extra keyword
    parameters the builder accepts beyond ``n`` and ``seed``, and serve
    as the authoritative parameter list for CLI/config splitting.
    """
    if kind not in ("metric", "graph"):
        raise ValueError(f"workload kind must be 'metric' or 'graph', got {kind!r}")
    return WORKLOADS.register(name, summary=summary, kind=kind, defaults=defaults)


def register_scheme(
    name: str, *, summary: str = "", problem: str = ""
) -> Callable:
    """Decorator: register a :class:`~repro.api.schemes.Scheme` adapter.

    Whether a scheme is mutable is its class's ``supports_update``
    attribute, not registry metadata (see :func:`repro.api.supports_update`).
    """
    return SCHEMES.register(name, summary=summary, problem=problem)


def workload_names() -> Tuple[str, ...]:
    return WORKLOADS.names()


def scheme_names() -> Tuple[str, ...]:
    return SCHEMES.names()
