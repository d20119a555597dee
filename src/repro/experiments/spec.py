"""Declarative experiment specs: named grids of workloads × schemes × plans.

An :class:`ExperimentSpec` is a frozen value object naming everything a
paper-style evaluation touches: workload specs
(:class:`~repro.api.workloads.Workload`), scheme configurations
(:class:`SchemeSpec`), evaluation plans
(:class:`~repro.api.configs.PlanConfig`) and build seeds.  The grid is
the cartesian product of the four axes; :class:`CellOverride` rules
adjust individual cells (a different plan for one workload, extra
probes for one scheme) without breaking the product structure.

Specs round-trip through plain dicts and JSON (:meth:`ExperimentSpec.to_dict`
/ :meth:`ExperimentSpec.from_dict`, :meth:`to_json` / :meth:`from_json`),
reject unknown keys with the valid choices spelled out, and hash
canonically (:meth:`spec_hash`) so persisted results can be matched back
to the exact grid that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro._types import integer_field
from repro.api.configs import PlanConfig
from repro.api.registry import SCHEMES
from repro.api.workloads import Workload

__all__ = [
    "Cell",
    "CellOverride",
    "ExperimentSpec",
    "SchemeSpec",
]


def _sorted_items(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


def _reject_unknown(cls_name: str, data: Mapping[str, Any], valid: Iterable[str]) -> None:
    valid = sorted(valid)
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} for {cls_name}; "
            f"valid keys: {', '.join(valid) or '<none>'}"
        )


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme axis entry: a registered scheme name plus config knobs.

    ``config`` is stored as a sorted tuple of items (hashable); ``label``
    is the display name benches use for rows (defaults to the scheme
    name, so it only needs setting when the same scheme appears several
    times with different configs, e.g. a δ sweep).
    """

    scheme: str
    config: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""

    @classmethod
    def make(cls, scheme: str, label: str = "", **config: Any) -> "SchemeSpec":
        entry = SCHEMES.get(scheme)  # validates the name early
        entry.obj.config_cls.from_dict(config)  # validates fields + ranges
        return cls(scheme=scheme, config=_sorted_items(config), label=label)

    @property
    def display(self) -> str:
        return self.label or self.scheme

    @property
    def config_dict(self) -> Dict[str, Any]:
        return dict(self.config)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"scheme": self.scheme}
        if self.label:
            out["label"] = self.label
        if self.config:
            out["config"] = self.config_dict
        return out

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "SchemeSpec":
        if isinstance(data, str):
            return cls.make(data)
        _reject_unknown("SchemeSpec", data, ("scheme", "label", "config"))
        return cls.make(
            data["scheme"], label=data.get("label", ""), **dict(data.get("config", {}))
        )


@dataclass(frozen=True)
class CellOverride:
    """A per-cell adjustment, matched by workload and/or scheme name.

    ``workload`` matches :attr:`Workload.name` or the sized display form
    ``"name(n=N)"`` (needed when one suite carries the same workload at
    several sizes); ``scheme`` matches the :class:`SchemeSpec` display
    label *or* its registered scheme name.  Omitted matchers match
    everything.  ``config`` entries are merged over the cell's config;
    ``plan`` and ``probes``, when given, replace the cell's plan and
    probe tuple; ``skip=True`` drops the matching cells from the grid
    entirely (how a suite runs a heavy scheme at only some of its
    scales).
    """

    workload: Optional[str] = None
    scheme: Optional[str] = None
    config: Tuple[Tuple[str, Any], ...] = ()
    plan: Optional[PlanConfig] = None
    probes: Optional[Tuple[str, ...]] = None
    skip: bool = False

    def matches(self, workload: Workload, scheme: SchemeSpec) -> bool:
        if self.workload is not None and self.workload not in (
            workload.name,
            workload.display,
        ):
            return False
        if self.scheme is not None and self.scheme not in (
            scheme.display,
            scheme.scheme,
        ):
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.workload is not None:
            out["workload"] = self.workload
        if self.scheme is not None:
            out["scheme"] = self.scheme
        if self.config:
            out["config"] = dict(self.config)
        if self.plan is not None:
            out["plan"] = self.plan.to_dict()
        if self.probes is not None:
            out["probes"] = list(self.probes)
        if self.skip:
            out["skip"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellOverride":
        _reject_unknown(
            "CellOverride", data,
            ("workload", "scheme", "config", "plan", "probes", "skip"),
        )
        plan = data.get("plan")
        probes = data.get("probes")
        return cls(
            workload=data.get("workload"),
            scheme=data.get("scheme"),
            config=_sorted_items(dict(data.get("config", {}))),
            plan=None if plan is None else PlanConfig.from_dict(plan),
            probes=None if probes is None else tuple(probes),
            skip=bool(data.get("skip", False)),
        )


@dataclass(frozen=True)
class Cell:
    """One fully-resolved grid cell: everything one evaluation needs."""

    workload: Workload
    scheme: str
    label: str
    config: Tuple[Tuple[str, Any], ...]
    plan: PlanConfig
    seed: int
    probes: Tuple[str, ...] = ()

    @property
    def title(self) -> str:
        """Short human-readable cell name for tables and progress lines."""
        return f"{self.label or self.scheme}@{self.workload.name}(n={self.workload.n})"

    @property
    def key(self) -> str:
        """Canonical cell identity: the sorted compact JSON of the cell.

        Exact (every axis value participates), deterministic across
        processes and runs — the resume/diff machinery matches on it.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload.to_dict(),
            "scheme": self.scheme,
            "label": self.label,
            "config": dict(self.config),
            "plan": self.plan.to_dict(),
            "seed": self.seed,
            "probes": list(self.probes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cell":
        _reject_unknown(
            "Cell",
            data,
            ("workload", "scheme", "label", "config", "plan", "seed", "probes"),
        )
        return cls(
            workload=Workload.from_dict(data["workload"]),
            scheme=data["scheme"],
            label=data.get("label", ""),
            config=_sorted_items(dict(data.get("config", {}))),
            plan=PlanConfig.from_dict(data["plan"]),
            seed=integer_field(data.get("seed", 0), "cell seed"),
            probes=tuple(data.get("probes", ())),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment grid: workloads × schemes × plans × seeds.

    Frozen and hashable; build with :meth:`make` (which coerces dicts and
    sequences into the frozen axis types) or :meth:`from_dict` /
    :meth:`from_json` (which additionally reject unknown keys).
    """

    name: str
    workloads: Tuple[Workload, ...]
    schemes: Tuple[SchemeSpec, ...]
    plans: Tuple[PlanConfig, ...] = (PlanConfig(),)
    seeds: Tuple[int, ...] = (0,)
    probes: Tuple[str, ...] = ()
    overrides: Tuple[CellOverride, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("ExperimentSpec needs a non-empty name")
        if not self.workloads:
            raise ValueError(f"spec {self.name!r} has no workloads")
        if not self.schemes:
            raise ValueError(f"spec {self.name!r} has no schemes")
        if not self.plans:
            raise ValueError(f"spec {self.name!r} has no plans")
        if not self.seeds:
            raise ValueError(f"spec {self.name!r} has no seeds")

    # -- construction --------------------------------------------------

    @classmethod
    def make(
        cls,
        name: str,
        workloads: Sequence[Union[Workload, Mapping[str, Any]]],
        schemes: Sequence[Union[SchemeSpec, str, Mapping[str, Any]]],
        plans: Sequence[Union[PlanConfig, Mapping[str, Any]]] = (PlanConfig(),),
        seeds: Sequence[int] = (0,),
        probes: Sequence[str] = (),
        overrides: Sequence[Union[CellOverride, Mapping[str, Any]]] = (),
        description: str = "",
    ) -> "ExperimentSpec":
        return cls(
            name=name,
            workloads=tuple(
                w if isinstance(w, Workload) else Workload.from_dict(w)
                for w in workloads
            ),
            schemes=tuple(
                s if isinstance(s, SchemeSpec) else SchemeSpec.from_dict(s)
                for s in schemes
            ),
            plans=tuple(
                p if isinstance(p, PlanConfig) else PlanConfig.from_dict(p)
                for p in plans
            ),
            seeds=tuple(integer_field(seeds, "seeds", ndim=1)),
            probes=tuple(probes),
            overrides=tuple(
                o if isinstance(o, CellOverride) else CellOverride.from_dict(o)
                for o in overrides
            ),
            description=description,
        )

    # -- grid expansion ------------------------------------------------

    def cells(self) -> Tuple[Cell, ...]:
        """Expand the grid: one cell per workload × scheme × plan × seed,
        with every matching override applied (in declaration order)."""
        out = []
        for workload in self.workloads:
            for scheme in self.schemes:
                config = scheme.config_dict
                plan_default: Optional[PlanConfig] = None
                probes: Tuple[str, ...] = self.probes
                skipped = False
                for rule in self.overrides:
                    if rule.matches(workload, scheme):
                        if rule.skip:
                            skipped = True
                            break
                        config.update(dict(rule.config))
                        if rule.plan is not None:
                            plan_default = rule.plan
                        if rule.probes is not None:
                            probes = rule.probes
                if skipped:
                    continue
                plans = (plan_default,) if plan_default is not None else self.plans
                for plan in plans:
                    for seed in self.seeds:
                        out.append(
                            Cell(
                                workload=workload,
                                scheme=scheme.scheme,
                                label=scheme.display,
                                config=_sorted_items(config),
                                plan=plan,
                                seed=seed,
                                probes=probes,
                            )
                        )
        return tuple(out)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "workloads": [w.to_dict() for w in self.workloads],
            "schemes": [s.to_dict() for s in self.schemes],
            "plans": [p.to_dict() for p in self.plans],
            "seeds": list(self.seeds),
        }
        if self.probes:
            out["probes"] = list(self.probes)
        if self.overrides:
            out["overrides"] = [o.to_dict() for o in self.overrides]
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _reject_unknown(
            "ExperimentSpec",
            data,
            (
                "name",
                "workloads",
                "schemes",
                "plans",
                "seeds",
                "probes",
                "overrides",
                "description",
            ),
        )
        return cls.make(
            name=data["name"],
            workloads=data["workloads"],
            schemes=data["schemes"],
            plans=data.get("plans", [PlanConfig()]),
            seeds=data.get("seeds", [0]),
            probes=data.get("probes", ()),
            overrides=data.get("overrides", ()),
            description=data.get("description", ""),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())

    def spec_hash(self) -> str:
        """12-hex-digit hash of the canonical JSON (provenance anchor)."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]
