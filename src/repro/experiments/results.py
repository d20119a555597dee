"""Typed, persisted experiment results.

A :class:`CellResult` is everything one grid cell produced: the metric
dict :func:`repro.api.evaluate` returned, probe outputs, wall-clock
timings, and the scheme's bit-level :class:`~repro.bits.SizeAccount`.
A :class:`ResultSet` bundles the results with the spec that generated
them and run provenance (spec hash, seeds, git describe, versions), and
round-trips losslessly through JSON — a reloaded set compares equal to
the in-memory one, so persisted artifacts are auditable and diffable.

The module also owns the shared JSON coercion (:func:`jsonify`,
:func:`dump_json`) used by the benchmark harness's ``record_table`` so
every artifact under ``benchmarks/results/`` goes through one encoder.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.experiments.spec import Cell, ExperimentSpec

__all__ = [
    "CellResult",
    "ResultSet",
    "default_results_dir",
    "dump_json",
    "jsonify",
    "run_provenance",
]

#: Marker distinguishing persisted result sets from other JSON artifacts.
RESULTSET_KIND = "experiment-resultset"

#: Filename suffix for persisted result sets (``<spec name> + suffix``).
RESULTSET_SUFFIX = ".resultset.json"


def jsonify(obj: Any) -> Any:
    """Coerce numpy scalars/arrays, tuples and mappings to JSON-ready
    Python values (floats stay exact: json round-trips Python floats)."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    return obj


def dump_json(data: Any, path: Union[str, Path], indent: int = 2) -> Path:
    """Write ``data`` as JSON through :func:`jsonify`; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(jsonify(data), indent=indent) + "\n")
    return path


def default_results_dir() -> Path:
    """``benchmarks/results/`` of this checkout (overridable via the
    ``REPRO_RESULTS_DIR`` environment variable)."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        return Path(env)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


def _git_describe() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_provenance(spec: ExperimentSpec) -> Dict[str, Any]:
    """Provenance stamped on every run: spec hash, git, versions, time."""
    return {
        "spec_hash": spec.spec_hash(),
        "git": _git_describe(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


@dataclass
class CellResult:
    """Everything one executed grid cell produced."""

    key: str
    title: str
    cell: Dict[str, Any]
    metrics: Dict[str, Any] = field(default_factory=dict)
    probes: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    size_bits: int = 0
    size_components: Dict[str, int] = field(default_factory=dict)

    @property
    def workload(self) -> Dict[str, Any]:
        return self.cell["workload"]

    @property
    def scheme(self) -> str:
        return self.cell["scheme"]

    @property
    def label(self) -> str:
        return self.cell.get("label") or self.cell["scheme"]

    @property
    def seed(self) -> int:
        return int(self.cell.get("seed", 0))

    def metric(self, name: str, default: Any = None) -> Any:
        """One metric (or probe output) by name; probes win on clash."""
        if name in self.probes:
            return self.probes[name]
        return self.metrics.get(name, default)

    def to_dict(self) -> Dict[str, Any]:
        return jsonify(
            {
                "key": self.key,
                "title": self.title,
                "cell": self.cell,
                "metrics": self.metrics,
                "probes": self.probes,
                "timings": self.timings,
                "size_bits": self.size_bits,
                "size_components": self.size_components,
            }
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        return cls(
            key=data["key"],
            title=data.get("title", ""),
            cell=dict(data["cell"]),
            metrics=dict(data.get("metrics", {})),
            probes=dict(data.get("probes", {})),
            timings=dict(data.get("timings", {})),
            size_bits=int(data.get("size_bits", 0)),
            size_components=dict(data.get("size_components", {})),
        )


@dataclass
class ResultSet:
    """A spec plus its per-cell results and run provenance."""

    spec: ExperimentSpec
    results: List[CellResult] = field(default_factory=list)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # -- lookup --------------------------------------------------------

    def keys(self) -> List[str]:
        return [r.key for r in self.results]

    def get(self, key: str) -> Optional[CellResult]:
        for r in self.results:
            if r.key == key:
                return r
        return None

    def for_cell(self, cell: Cell) -> Optional[CellResult]:
        return self.get(cell.key)

    def select(
        self, *, workload: Optional[str] = None, label: Optional[str] = None
    ) -> List[CellResult]:
        """Results filtered by workload name and/or scheme display label."""
        out = []
        for r in self.results:
            if workload is not None and r.workload.get("workload") != workload:
                continue
            if label is not None and r.label != label:
                continue
            out.append(r)
        return out

    def one(self, *, workload: Optional[str] = None, label: Optional[str] = None,
            **cell_fields: Any) -> CellResult:
        """The unique matching result (errors list what matched)."""
        found = [
            r
            for r in self.select(workload=workload, label=label)
            if all(r.cell.get(k) == v for k, v in cell_fields.items())
        ]
        if len(found) != 1:
            raise LookupError(
                f"expected exactly one result for workload={workload!r} "
                f"label={label!r} {cell_fields}; matched "
                f"{[r.title for r in found]}"
            )
        return found[0]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": RESULTSET_KIND,
            "spec": self.spec.to_dict(),
            "provenance": jsonify(self.provenance),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        kind = data.get("kind")
        if kind != RESULTSET_KIND:
            raise ValueError(
                f"not a persisted ResultSet (kind={kind!r}, "
                f"expected {RESULTSET_KIND!r})"
            )
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            results=[CellResult.from_dict(r) for r in data.get("results", [])],
            provenance=dict(data.get("provenance", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    def default_path(self, out_dir: Optional[Union[str, Path]] = None) -> Path:
        out = Path(out_dir) if out_dir is not None else default_results_dir()
        return out / f"{self.spec.name}{RESULTSET_SUFFIX}"

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        path = Path(path) if path is not None else self.default_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResultSet":
        return cls.from_json(Path(path).read_text())

    # -- reporting -----------------------------------------------------

    def rows(
        self, columns: Sequence[str], over_seeds: Optional[str] = None
    ) -> List[List[Any]]:
        """One row per result: cell fields (``workload``/``label``/``n``/
        ``seed``), then named metrics/probes looked up per column.

        ``over_seeds="mean"`` aggregates the per-seed rows of each cell
        group (same workload, scheme, config and plan — only the seed
        varies) into one row: numeric columns become the mean over seeds,
        the ``seed`` column becomes the number of seeds aggregated, and a
        column name suffixed ``:ci95`` yields the group's 95% confidence
        half-width (``1.96·s/√k``, 0.0 for a single seed) for the base
        metric — so a suite can declare ``seeds=[0..4]`` and report
        mean ± CI without bench-side post-processing.  Non-numeric values
        pass through when constant across the group, else become None.
        Group order follows first appearance.
        """
        if over_seeds is None:
            return [[self._cell_value(r, col) for col in columns]
                    for r in self.results]
        if over_seeds != "mean":
            raise ValueError(
                f"over_seeds must be None or 'mean', got {over_seeds!r}"
            )
        groups: "Dict[str, List[CellResult]]" = {}
        for r in self.results:
            key_cell = {k: v for k, v in r.cell.items() if k != "seed"}
            key = json.dumps(jsonify(key_cell), sort_keys=True)
            groups.setdefault(key, []).append(r)
        out = []
        for members in groups.values():
            row: List[Any] = []
            for col in columns:
                base, _, suffix = col.partition(":")
                values = [self._cell_value(r, base) for r in members]
                numeric = [
                    v for v in values
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                ]
                if suffix == "ci95":
                    if len(numeric) != len(values) or not numeric:
                        row.append(None)
                    elif len(numeric) == 1:
                        row.append(0.0)
                    else:
                        std = float(np.std(numeric, ddof=1))
                        row.append(1.96 * std / math.sqrt(len(numeric)))
                elif suffix:
                    raise ValueError(
                        f"unknown aggregate suffix {suffix!r} in column "
                        f"{col!r}; supported: ci95"
                    )
                elif base == "seed":
                    row.append(len(members))
                elif len(numeric) == len(values) and numeric:
                    row.append(float(np.mean(numeric)))
                elif all(v == values[0] for v in values):
                    row.append(values[0])
                else:
                    row.append(None)
            out.append(row)
        return out

    @staticmethod
    def _cell_value(r: "CellResult", col: str) -> Any:
        if col == "workload":
            return r.workload.get("workload")
        if col == "label":
            return r.label
        if col == "n":
            return r.workload.get("n")
        if col == "seed":
            return r.seed
        if col == "size_bits":
            return r.size_bits
        return r.metric(col)

    def diff(self, other: "ResultSet", rtol: float = 1e-9) -> Dict[str, Any]:
        """Cell-keyed comparison: missing cells, and changed metric values,
        probe values and size accounts.

        Entries are keyed by the exact cell key (titles alone collide
        across seeds/plans) and carry the title for display; a changed
        cell lists its changed ``metrics``, ``probes`` and ``sizes``
        (``size_bits`` and ``size_components.<name>``).  Timing probes,
        whose names end in ``_s`` or ``_speedup``, are skipped like the
        cell ``timings``: they differ from run to run.  NaN equals NaN.
        """
        mine = {r.key: r for r in self.results}
        theirs = {r.key: r for r in other.results}
        changed: Dict[str, Dict[str, Any]] = {}
        for key in mine.keys() & theirs.keys():
            a, b = mine[key], theirs[key]
            sections = {
                "metrics": _deltas(a.metrics, b.metrics, rtol),
                "probes": _deltas(_untimed(a.probes), _untimed(b.probes), rtol),
                "sizes": _deltas(_sizes(a), _sizes(b), rtol),
            }
            if any(sections.values()):
                changed[key] = {"title": a.title, **sections}
        return {
            "only_self": [
                {"key": k, "title": mine[k].title}
                for k in sorted(mine.keys() - theirs.keys())
            ],
            "only_other": [
                {"key": k, "title": theirs[k].title}
                for k in sorted(theirs.keys() - mine.keys())
            ],
            "changed": changed,
        }


def _untimed(probes: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        name: value for name, value in probes.items()
        if not name.endswith(("_s", "_speedup"))
    }


def _sizes(result: CellResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {"size_bits": result.size_bits}
    for name, bits in result.size_components.items():
        out[f"size_components.{name}"] = bits
    return out


def _deltas(a: Mapping[str, Any], b: Mapping[str, Any], rtol: float) -> Dict[str, Any]:
    """``{name: {"self": ..., "other": ...}}`` for every name whose
    values differ (a name on one side only counts as a change)."""
    deltas: Dict[str, Any] = {}
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if _values_differ(va, vb, rtol):
            deltas[name] = {"self": va, "other": vb}
    return deltas


def _values_differ(a: Any, b: Any, rtol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:  # covers equal ints and identical infinities
            return False
        if np.isnan(a) and np.isnan(b):
            return False
        if not (np.isfinite(a) and np.isfinite(b)):
            return True
        return not np.isclose(a, b, rtol=rtol, atol=0.0)
    return a != b
