"""Runner behaviour: determinism, persistence, resume, parallel parity."""

from __future__ import annotations

import json

import pytest

from repro.api import BuildCache, PlanConfig, Workload
from repro.experiments import ExperimentSpec, ResultSet, SchemeSpec, run


def small_spec(name: str = "unit-run") -> ExperimentSpec:
    return ExperimentSpec.make(
        name,
        workloads=[
            Workload.make("hypercube", n=24, dim=2, seed=1),
            Workload.make("uline", n=16),
        ],
        schemes=[
            SchemeSpec.make("triangulation", delta=0.3),
            SchemeSpec.make("beacons", beacons=6),
        ],
        plans=[PlanConfig(kind="uniform", pairs=40, seed=2)],
        seeds=[0],
    )


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return run(small_spec(), out_dir=out, cache=BuildCache()), out


class TestDeterminism:
    def test_same_spec_same_seed_same_metrics(self, first_run, tmp_path):
        first, _ = first_run
        again = run(small_spec(), out_dir=tmp_path, cache=BuildCache())
        assert [r.key for r in again] == [r.key for r in first]
        for a, b in zip(again, first):
            assert a.metrics == b.metrics
            assert a.size_bits == b.size_bits
            assert a.size_components == b.size_components

    def test_results_align_with_cells(self, first_run):
        first, _ = first_run
        assert [r.key for r in first] == [c.key for c in small_spec().cells()]


class TestPersistence:
    def test_reloaded_set_compares_equal(self, first_run):
        first, out = first_run
        path = out / "unit-run.resultset.json"
        assert path.exists()
        assert ResultSet.load(path) == first

    def test_provenance_fields(self, first_run):
        first, _ = first_run
        prov = first.provenance
        assert prov["spec_hash"] == small_spec().spec_hash()
        assert prov["cells"] == len(first)
        assert "created" in prov and "python" in prov

    def test_foreign_json_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"table": "x", "rows": []}))
        with pytest.raises(ValueError, match="kind"):
            ResultSet.load(path)


class TestResume:
    def test_resume_runs_only_missing_cells(self, first_run, tmp_path):
        first, _ = first_run
        partial = ResultSet(
            spec=first.spec,
            results=first.results[:2],
            provenance=dict(first.provenance),
        )
        partial.save(tmp_path / "unit-run.resultset.json")
        resumed = run(small_spec(), out_dir=tmp_path, resume=True,
                      cache=BuildCache())
        assert len(resumed) == len(first)
        assert resumed.provenance["resumed_cells"] == 2
        # The reused cells are the prior objects (identical timings
        # prove they were not re-executed), the rest ran fresh.
        for prior, now in zip(first.results[:2], resumed.results[:2]):
            assert now.timings == prior.timings
        for a, b in zip(first, resumed):
            assert a.metrics == b.metrics

    def test_resume_spec_mismatch_raises(self, first_run, tmp_path):
        first, _ = first_run
        ResultSet(
            spec=first.spec, results=[], provenance={}
        ).save(tmp_path / "other-grid.resultset.json")
        other = ExperimentSpec.make(
            "other-grid",
            workloads=[Workload.make("uline", n=16)],
            schemes=[SchemeSpec.make("triangulation")],
        )
        with pytest.raises(ValueError, match="different grid"):
            run(other, out_dir=tmp_path, resume=True)

    def test_full_resume_executes_nothing(self, first_run):
        first, out = first_run
        resumed = run(small_spec(), out_dir=out, resume=True)
        assert resumed.provenance["resumed_cells"] == len(first)
        assert [r.timings for r in resumed] == [r.timings for r in first]


class TestParallel:
    def test_process_pool_matches_serial(self, first_run, tmp_path):
        first, _ = first_run
        parallel = run(
            small_spec(), out_dir=tmp_path, processes=2, cache=BuildCache()
        )
        assert [r.key for r in parallel] == [r.key for r in first]
        for a, b in zip(parallel, first):
            assert a.metrics == b.metrics
            assert a.size_bits == b.size_bits


class TestReporting:
    def test_rows_and_metric_lookup(self, first_run):
        first, _ = first_run
        rows = first.rows(["workload", "label", "n", "max_relative_error"])
        assert len(rows) == len(first)
        assert rows[0][0] in ("hypercube", "uline")
        assert isinstance(rows[0][3], float)

    def test_diff_flags_changed_metrics(self, first_run):
        first, _ = first_run
        clone = ResultSet.from_json(first.to_json())
        assert first.diff(clone) == {
            "only_self": [], "only_other": [], "changed": {}
        }
        clone.results[0].metrics["max_relative_error"] = 123.0
        diff = first.diff(clone)
        changed = diff["changed"][clone.results[0].key]
        assert changed["title"] == clone.results[0].title
        assert "max_relative_error" in changed["metrics"]

    def test_diff_compares_probes_and_sizes(self, first_run):
        """A changed probe or size account is reported; NaN against NaN
        and a changed timing probe are not."""
        first, _ = first_run
        base = ResultSet.from_json(first.to_json())
        clone = ResultSet.from_json(first.to_json())
        for rs in (base, clone):
            rs.results[0].probes.update(
                {"overlap": float("nan"), "merges": 3, "build_s": 1.0, "update_speedup": 2.0}
            )
        clone.results[0].probes.update({"merges": 4, "build_s": 9.0, "update_speedup": 5.0})
        clone.results[0].size_components["extra_bits"] = 8
        changed = base.diff(clone)["changed"][clone.results[0].key]
        assert changed["metrics"] == {}
        assert changed["probes"] == {"merges": {"self": 3, "other": 4}}
        assert changed["sizes"] == {"size_components.extra_bits": {"self": None, "other": 8}}
        clone.results[0].probes["merges"] = 3
        del clone.results[0].size_components["extra_bits"]
        assert base.diff(clone)["changed"] == {}

    def test_diff_keys_disambiguate_identical_titles(self, first_run):
        """Cells differing only in seed must not collide in the diff."""
        first, _ = first_run
        clone = ResultSet.from_json(first.to_json())
        missing = clone.results.pop()
        diff = first.diff(clone)
        assert diff["only_self"] == [
            {"key": missing.key, "title": missing.title}
        ]

    def test_one_lookup_errors_on_ambiguity(self, first_run):
        first, _ = first_run
        with pytest.raises(LookupError, match="exactly one"):
            first.one(label="triangulation")  # two workloads match
        sole = first.one(workload="uline", label="beacons")
        assert sole.scheme == "beacons"
