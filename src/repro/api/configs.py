"""Frozen per-scheme configuration objects.

Every scheme family gets one frozen dataclass whose fields are the
tunable knobs the paper exposes (δ, Chernoff constants, ring bases…).
Configs validate on construction and round-trip through plain dicts
(:meth:`SchemeConfig.from_dict` / :meth:`SchemeConfig.to_dict`) so the
CLI, JSON files and the benchmark suite all speak the same language.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro._types import integer_field


@dataclass(frozen=True)
class SchemeConfig:
    """Base class: dict round-tripping plus subclass validation hooks."""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ValueError on out-of-range fields (subclass hook)."""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]] = None) -> "SchemeConfig":
        data = dict(data or {})
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            valid = ", ".join(sorted(names)) or "<none>"
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for {cls.__name__}; "
                f"valid options: {valid}"
            )
        return cls(**data)

    def replace(self, **changes: Any) -> "SchemeConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def field_names(cls) -> frozenset:
        return frozenset(f.name for f in dataclasses.fields(cls))


def _check_delta(delta: float, hi: float = 0.5) -> None:
    if not 0 < delta < hi:
        raise ValueError(f"delta must be in (0, {hi}), got {delta}")


@dataclass(frozen=True)
class TriangulationConfig(SchemeConfig):
    """Theorem 3.2 rings triangulation (and its DLS corollary)."""

    delta: float = 0.3

    def validate(self) -> None:
        _check_delta(self.delta)


@dataclass(frozen=True)
class BeaconsConfig(SchemeConfig):
    """Common-beacon (ε,δ)-triangulation baseline [33, 50]."""

    beacons: int = 16
    mantissa_bits: int = 12

    def validate(self) -> None:
        if self.beacons < 1:
            raise ValueError(f"beacons must be positive, got {self.beacons}")
        if self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be positive")


@dataclass(frozen=True)
class DLSConfig(SchemeConfig):
    """Theorem 3.4 id-free distance labeling."""

    delta: float = 0.3
    mantissa_bits: Optional[int] = None

    def validate(self) -> None:
        _check_delta(self.delta)
        if self.mantissa_bits is not None and self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be positive")


@dataclass(frozen=True)
class OracleConfig(SchemeConfig):
    """Thorup–Zwick (2k−1)-approximate oracle baseline."""

    k: int = 2
    mantissa_bits: int = 10

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


@dataclass(frozen=True)
class RoutingConfig(SchemeConfig):
    """Compact routing (Theorems 2.1 / 4.1 / 4.2, trivial baseline).

    ``estimator`` only affects Theorem 4.1; ``strict_goodness`` only
    Theorem 4.2; ``overlay_style`` only metric (graph-free) workloads,
    where the scheme routes over a self-chosen overlay (§4.1).
    """

    delta: float = 0.25
    estimator: str = "triangulation"
    strict_goodness: bool = False
    overlay_style: str = "net"

    def validate(self) -> None:
        _check_delta(self.delta, hi=0.5)
        if self.estimator not in ("triangulation", "exact", "ring"):
            raise ValueError(
                f"estimator must be 'triangulation', 'ring' or 'exact', "
                f"got {self.estimator!r}"
            )
        if self.overlay_style not in ("net", "scale"):
            raise ValueError(
                f"overlay_style must be 'net' or 'scale', got {self.overlay_style!r}"
            )


@dataclass(frozen=True)
class SmallWorldConfig(SchemeConfig):
    """Searchable small worlds (Theorems 5.2a/5.2b/5.5, baselines)."""

    c: float = 2.0
    alpha_factor: float = 2.0
    exponent: float = 2.0  # Kleinberg-grid long-link exponent
    degree_factor: float = 1.0  # group-structures degree multiplier

    def validate(self) -> None:
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.alpha_factor <= 0:
            raise ValueError("alpha_factor must be positive")
        if self.degree_factor <= 0:
            raise ValueError("degree_factor must be positive")


@dataclass(frozen=True)
class PlanConfig(SchemeConfig):
    """An evaluation plan: which node pairs a benchmark touches.

    ``kind`` names a plan registered in :data:`repro.engine.PLANS`:
    ``all-pairs`` (exhaustive), ``uniform`` (``pairs`` sampled pairs) or
    ``stratified`` (``per_scale`` pairs per power-of-two distance
    scale).  ``seed`` makes sampled plans deterministic.
    """

    kind: str = "uniform"
    pairs: int = 2000
    per_scale: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in ("all-pairs", "uniform", "stratified"):
            raise ValueError(
                f"kind must be 'all-pairs', 'uniform' or 'stratified', "
                f"got {self.kind!r}"
            )
        for name in ("pairs", "per_scale", "seed"):
            integer_field(getattr(self, name), name)
        if self.pairs < 1:
            raise ValueError(f"pairs must be positive, got {self.pairs}")
        if self.per_scale < 1:
            raise ValueError(f"per_scale must be positive, got {self.per_scale}")

    def build(self):
        """The :class:`repro.engine.QueryPlan` this config describes."""
        from repro.engine import make_plan

        if self.kind == "all-pairs":
            return make_plan("all-pairs")
        if self.kind == "uniform":
            return make_plan("uniform", size=self.pairs, seed=self.seed)
        return make_plan("stratified", per_scale=self.per_scale, seed=self.seed)


@dataclass(frozen=True)
class MeridianConfig(SchemeConfig):
    """Meridian closest-node overlay (§6, [57])."""

    ring_base: float = 2.0
    nodes_per_ring: int = 8
    beta: float = 0.5

    def validate(self) -> None:
        if self.ring_base <= 1:
            raise ValueError(f"ring_base must exceed 1, got {self.ring_base}")
        if self.nodes_per_ring < 1:
            raise ValueError("nodes_per_ring must be positive")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
