"""The build facade: one entry point for every workload and scheme.

>>> from repro import api
>>> tri = api.build("triangulation", workload="hypercube", n=128, delta=0.25)
>>> tri.query(3, 77)            # (1+O(delta))-approximate distance
>>> tri.stats()                 # the paper's quality/size numbers
>>> tri.size_account()          # bit-level storage breakdown

Builds are memoized: a :class:`BuildCache` keys realized workloads by
their :class:`~repro.api.workloads.Workload` spec (name, n, seed,
params), so the CLI or a benchmark that runs several schemes on one
instance generates the metric once and shares the lazily-built scale
structures through the common :class:`WorkloadInstance`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.rng import SeedLike

from repro.api.mutation import MutableScheme, UnsupportedUpdate, UpdateReceipt
from repro.api.registry import SCHEMES, WORKLOADS
from repro.api.schemes import FittedScheme
from repro.api.workloads import DEFAULT_N, Workload, WorkloadInstance, realize

WorkloadLike = Union[str, Workload, WorkloadInstance]


class BuildCache:
    """LRU-memoizes realized workloads per (name, n, seed, params) spec.

    Bounded because every entry pins an O(n²) distance matrix (plus any
    lazily-built scale structures) for as long as it stays cached.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._instances: "OrderedDict[Workload, WorkloadInstance]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def instance(self, spec: Workload) -> WorkloadInstance:
        try:
            hash(spec)
        except TypeError:
            # Unhashable seed (e.g. a live Generator): build uncached.
            return realize(spec)
        if spec in self._instances:
            cached = self._instances[spec]
            if getattr(cached, "revision", 0):
                # A mutable scheme applied in-place updates to this
                # instance; its shared structures no longer match the
                # pristine spec.  Evict and rebuild instead of serving
                # a stale (mutated) instance under the original key.
                del self._instances[spec]
                self.invalidations += 1
            else:
                self.hits += 1
                self._instances.move_to_end(spec)
                return cached
        self.misses += 1
        built = realize(spec)
        self._instances[spec] = built
        while len(self._instances) > self.maxsize:
            self._instances.popitem(last=False)
        return built

    def clear(self) -> None:
        """Drop memoized instances."""
        self._instances.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> Dict[str, Any]:
        return {
            "entries": len(self._instances),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


#: The process-wide default cache (cleared with :func:`clear_cache`).
_DEFAULT_CACHE = BuildCache()


def clear_cache() -> None:
    """Drop all memoized workload instances."""
    _DEFAULT_CACHE.clear()


def cache_info() -> Dict[str, int]:
    """Entries/hits/misses of the default build cache."""
    return _DEFAULT_CACHE.info()


def build_workload(
    workload: WorkloadLike = "hypercube",
    n: Optional[int] = None,
    seed: Optional[SeedLike] = 0,
    *,
    cache: Optional[BuildCache] = None,
    **params: Any,
) -> WorkloadInstance:
    """Realize a workload by name (memoized) or pass an instance through.

    ``build_workload("expline", n=64, base=1.7)`` builds (or fetches) the
    64-point exponential line; deterministic generators ignore ``seed``.
    When ``n`` is omitted the instance size falls back to
    :data:`DEFAULT_N` (= 96).
    """
    if isinstance(workload, WorkloadInstance):
        if n is not None or params:
            raise ValueError(
                "cannot override n/params of an already-built WorkloadInstance"
            )
        return workload
    if isinstance(workload, Workload):
        if n is not None or params:
            raise ValueError("pass parameters via Workload.make, not both")
        spec = workload
    else:
        spec = Workload.make(workload, n=n, seed=seed, **params)
    return (cache or _DEFAULT_CACHE).instance(spec)


def _split_params(
    scheme_cls, workload_name: Optional[str], params: Mapping[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split loose kwargs into (workload params, config params)."""
    config_fields = scheme_cls.config_cls.field_names()
    workload_fields: frozenset = frozenset()
    if workload_name is not None:
        workload_fields = frozenset(WORKLOADS.get(workload_name).meta["defaults"])
    wl: Dict[str, Any] = {}
    cfg: Dict[str, Any] = {}
    for key, value in params.items():
        in_cfg = key in config_fields
        in_wl = key in workload_fields
        if in_cfg and in_wl:
            raise ValueError(
                f"parameter {key!r} is ambiguous: both workload "
                f"{workload_name!r} and {scheme_cls.config_cls.__name__} "
                f"accept it; pass it via workload_params= or config= instead"
            )
        if in_cfg:
            cfg[key] = value
        elif in_wl:
            wl[key] = value
        else:
            valid = sorted(config_fields | workload_fields)
            raise ValueError(
                f"unknown parameter {key!r}; valid parameters here: "
                f"{', '.join(valid)}"
            )
    return wl, cfg


def build(
    scheme: str,
    workload: WorkloadLike = "hypercube",
    n: Optional[int] = None,
    seed: SeedLike = 0,
    *,
    config: Union[None, Mapping[str, Any], Any] = None,
    workload_params: Optional[Mapping[str, Any]] = None,
    cache: Optional[BuildCache] = None,
    **params: Any,
) -> FittedScheme:
    """Build a registered scheme on a registered workload.

    Loose keyword arguments are routed automatically: names matching the
    scheme's config go to the config, names matching the workload's
    parameters go to the generator, anything else (or anything both
    accept) raises with the valid choices spelled out.  ``seed`` drives
    both the workload generator and every randomized part of the scheme,
    so equal seeds give identical builds.
    """
    entry = SCHEMES.get(scheme)
    scheme_cls = entry.obj
    wl_name = workload if isinstance(workload, str) else None
    wl_params, cfg_params = _split_params(scheme_cls, wl_name, params)
    if workload_params:
        overlap = set(wl_params) & set(workload_params)
        if overlap:
            raise ValueError(f"workload parameter(s) given twice: {sorted(overlap)}")
        wl_params.update(workload_params)
    if config is not None and cfg_params:
        raise ValueError(
            f"pass scheme options either via config= or as keywords, not both "
            f"(got config= plus {sorted(cfg_params)})"
        )
    if config is None:
        config = scheme_cls.config_cls.from_dict(cfg_params)
    elif isinstance(config, Mapping):
        config = scheme_cls.config_cls.from_dict(config)

    instance = build_workload(workload, n=n, seed=seed, cache=cache, **wl_params)
    return scheme_cls.build(instance, config, seed=seed)


def supports_update(scheme: Union[str, FittedScheme, type]) -> bool:
    """Whether a scheme (by registered name, class, or fitted instance)
    implements the :class:`MutableScheme` churn extension: the class's
    ``supports_update`` attribute."""
    if isinstance(scheme, str):
        scheme = SCHEMES.get(scheme).obj
    target = scheme if isinstance(scheme, type) else type(scheme)
    return bool(getattr(target, "supports_update", False))


def update(scheme: FittedScheme, joins=(), leaves=()) -> UpdateReceipt:
    """Apply one join/leave batch to a fitted mutable scheme.

    >>> tri = api.build("triangulation", "hypercube", n=256)
    >>> receipt = api.update(tri, leaves=[3, 77])
    >>> tri.query(5, 9)        # served from the patched structure

    Static schemes raise the typed :class:`UnsupportedUpdate` (never an
    ``AttributeError``) naming the schemes that do support updates.
    """
    if not supports_update(scheme):
        mutable = sorted(name for name in SCHEMES.names() if supports_update(name))
        raise UnsupportedUpdate(
            f"{type(scheme).__name__} does not support incremental updates; "
            f"schemes with update support: {', '.join(mutable)}"
        )
    return scheme.update(joins=joins, leaves=leaves)


def evaluate(
    scheme: FittedScheme,
    plan: Union[str, Any] = "uniform",
    **plan_params: Any,
) -> Dict[str, Any]:
    """Evaluate a fitted scheme over a query plan.

    ``plan`` is a name registered in :data:`repro.engine.PLANS`
    (``all-pairs``, ``uniform``, ``stratified``) with its parameters as
    keywords, a ready :class:`repro.engine.QueryPlan`, a
    :class:`~repro.api.configs.PlanConfig`, or an explicit pair array:

    >>> api.evaluate(scheme, "uniform", size=5000, seed=1)
    >>> api.evaluate(scheme, "all-pairs")
    >>> api.evaluate(scheme, PlanConfig(kind="stratified", per_scale=32))

    Sampled plans make quality evaluation tractable at n = 10⁴⁺, where
    the Θ(n²) all-pairs sweep is the bottleneck rather than the scheme.
    """
    from repro.engine import make_plan

    from repro.api.configs import PlanConfig

    if isinstance(plan, PlanConfig):
        if plan_params:
            raise ValueError("pass plan parameters inside the PlanConfig")
        resolved = plan.build()
    else:
        resolved = make_plan(plan, **plan_params)
    return scheme.evaluate(resolved)


def save(scheme: FittedScheme, path: Any) -> str:
    """Persist a fitted scheme to a container file; returns its hash.

    >>> tri = api.build("triangulation", "hypercube", n=1000)
    >>> api.save(tri, "tri.repro")
    >>> api.load("tri.repro").query(3, 77)   # no rebuild, same bits

    Thin wrapper over :func:`repro.serve.persist.save_structure`; see
    :data:`repro.serve.PERSISTABLE_SCHEMES` for coverage.
    """
    from repro.serve.persist import save_structure

    return save_structure(scheme, path)


def load(path: Any, **options: Any) -> FittedScheme:
    """Reopen a scheme saved by :func:`save` — zero-copy, no rebuild.

    The file's array segments are memory-mapped (pass ``mmap=False`` to
    read them into private memory, ``verify=True`` to recheck the
    content hash first).  Estimates and routes from the loaded scheme
    are bit-for-bit identical to the scheme that was saved.
    """
    from repro.serve.persist import load_structure

    return load_structure(path, **options)


def list_workloads() -> Tuple[Tuple[str, str], ...]:
    """(name, summary) for every registered workload."""
    return tuple((name, entry.summary) for name, entry in WORKLOADS.items())


def list_schemes() -> Tuple[Tuple[str, str, str], ...]:
    """(name, problem, summary) for every registered scheme."""
    return tuple(
        (name, entry.meta.get("problem", ""), entry.summary)
        for name, entry in SCHEMES.items()
    )


def describe() -> str:
    """A human-readable listing of all workloads and schemes."""
    lines = [f"workloads ({len(WORKLOADS)})"]
    for name, summary in list_workloads():
        lines.append(f"  {name:<14s} {summary}")
    lines.append("")
    lines.append(f"schemes ({len(SCHEMES)})")
    for name, problem, summary in list_schemes():
        tag = " [+update]" if supports_update(name) else ""
        lines.append(f"  {name:<14s} [{problem}]{tag} {summary}")
    return "\n".join(lines)
