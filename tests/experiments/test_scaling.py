"""Experiment-layer behaviour at scale: multi-seed aggregation, worker
resolution + provenance, --override-n."""

from __future__ import annotations

import os

import pytest

from repro.api import BuildCache, PlanConfig, Workload
from repro.experiments import ExperimentSpec, SchemeSpec, get_suite, run
from repro.experiments.runner import resolve_workers


def seeded_spec() -> ExperimentSpec:
    return ExperimentSpec.make(
        "unit-seeds",
        workloads=[Workload.make("hypercube", n=24, dim=2, seed=5)],
        schemes=[
            SchemeSpec.make("beacons", label="b4", beacons=4),
            SchemeSpec.make("beacons", label="b8", beacons=8),
        ],
        plans=[PlanConfig(kind="uniform", pairs=30, seed=3)],
        seeds=[0, 1, 2],
    )


@pytest.fixture(scope="module")
def seeded_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return run(seeded_spec(), out_dir=out, processes=1, cache=BuildCache())


class TestOverSeeds:
    def test_mean_groups_by_cell_minus_seed(self, seeded_run):
        rows = seeded_run.rows(
            ["label", "seed", "mean_relative_error"], over_seeds="mean"
        )
        assert len(rows) == 2  # two scheme labels, seeds folded
        labels = [row[0] for row in rows]
        assert labels == ["b4", "b8"]
        for row in rows:
            assert row[1] == 3  # seed column = number of seeds aggregated

    def test_mean_is_the_arithmetic_mean(self, seeded_run):
        per_seed = seeded_run.rows(["label", "mean_relative_error"])
        b4 = [r[1] for r in per_seed if r[0] == "b4"]
        rows = seeded_run.rows(["label", "mean_relative_error"], over_seeds="mean")
        assert rows[0][1] == pytest.approx(sum(b4) / len(b4), rel=1e-12)

    def test_ci95_column(self, seeded_run):
        import numpy as np

        per_seed = seeded_run.rows(["label", "mean_relative_error"])
        b4 = [r[1] for r in per_seed if r[0] == "b4"]
        rows = seeded_run.rows(
            ["label", "mean_relative_error:ci95"], over_seeds="mean"
        )
        expected = 1.96 * float(np.std(b4, ddof=1)) / (len(b4) ** 0.5)
        assert rows[0][1] == pytest.approx(expected, rel=1e-12)

    def test_non_numeric_passthrough_and_unknown_suffix(self, seeded_run):
        rows = seeded_run.rows(["workload"], over_seeds="mean")
        assert rows[0][0] == "hypercube"
        with pytest.raises(ValueError, match="ci95"):
            seeded_run.rows(["x:median"], over_seeds="mean")
        with pytest.raises(ValueError, match="over_seeds"):
            seeded_run.rows(["label"], over_seeds="max")

    def test_default_is_per_seed(self, seeded_run):
        assert len(seeded_run.rows(["label"])) == len(seeded_run)


class TestWorkerResolution:
    def test_none_and_zero_resolve_to_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_workers(None) == expected
        assert resolve_workers(0) == expected

    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_workers(-1)

    def test_processes_zero_resolves_to_cpu_count(self, tmp_path):
        spec = ExperimentSpec.make(
            "unit-procs",
            workloads=[Workload.make("hypercube", n=16, dim=2, seed=1)],
            schemes=[SchemeSpec.make("beacons", beacons=4)],
            plans=[PlanConfig(kind="uniform", pairs=10, seed=0)],
        )
        rs = run(spec, out_dir=tmp_path, processes=0, cache=BuildCache())
        assert rs.provenance["processes"] == (os.cpu_count() or 1)

    def test_serial_provenance(self, seeded_run):
        assert seeded_run.provenance["processes"] == 1


class TestOverrideN:
    def test_override_rebuilds_workloads_and_renames(self):
        from repro.cli import _override_spec_n

        spec = get_suite("table1-large")
        reduced = _override_spec_n(spec, 100)
        assert reduced.name == "table1-large-n100"
        assert all(w.n == 100 for w in reduced.workloads)
        # Non-size parameters (including the lazy-backend knob) survive.
        assert all(w.kwargs["dense"] is False for w in reduced.workloads)
        assert reduced.schemes == spec.schemes
        assert reduced.spec_hash() != spec.spec_hash()


class TestLargeSuitesDeclared:
    @pytest.mark.parametrize("name", ["table1-large", "stretch-large",
                                      "dls-large"])
    def test_registered_at_ten_thousand(self, name):
        # Every large suite leads with n = 10⁴ workloads; dls-large
        # additionally carries smaller rungs for the paper's own labeling
        # schemes (their construction constants cap the feasible n).
        spec = get_suite(name)
        assert max(w.n for w in spec.workloads) == 10_000
        if name != "dls-large":
            assert all(w.n == 10_000 for w in spec.workloads)

    def test_table1_large_is_matrix_free(self):
        spec = get_suite("table1-large")
        assert all(w.kwargs["dense"] is False for w in spec.workloads)
