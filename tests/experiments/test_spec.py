"""ExperimentSpec: round-tripping, unknown-key errors, grid expansion."""

from __future__ import annotations

import json

import pytest

from repro.api import PlanConfig, Workload
from repro.experiments import CellOverride, ExperimentSpec, SchemeSpec


@pytest.fixture()
def spec() -> ExperimentSpec:
    return ExperimentSpec.make(
        "unit",
        description="two workloads x two schemes x two plans x two seeds",
        workloads=[
            Workload.make("hypercube", n=24, dim=2, seed=1),
            Workload.make("expline", n=16),
        ],
        schemes=[
            SchemeSpec.make("triangulation", delta=0.3),
            SchemeSpec.make("beacons", label="beacons-8", beacons=8),
        ],
        plans=[
            PlanConfig(kind="uniform", pairs=40, seed=0),
            PlanConfig(kind="all-pairs"),
        ],
        seeds=[0, 1],
        probes=["label-bits"],
        overrides=[
            CellOverride(workload="expline",
                         plan=PlanConfig(kind="uniform", pairs=10, seed=7)),
            CellOverride(scheme="beacons-8", config=(("beacons", 4),),
                         probes=()),
        ],
    )


class TestRoundTrip:
    def test_dict_round_trip(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self, spec):
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_file_round_trip(self, spec, tmp_path):
        path = spec.save(tmp_path / "unit.json")
        assert ExperimentSpec.load(path) == spec

    def test_hash_is_canonical_and_sensitive(self, spec):
        assert len(spec.spec_hash()) == 12
        other = ExperimentSpec.make(
            "unit",
            workloads=spec.workloads,
            schemes=spec.schemes,
            plans=spec.plans,
            seeds=[0, 2],  # one axis value changed
        )
        assert other.spec_hash() != spec.spec_hash()

    def test_scheme_spec_from_bare_string(self):
        assert SchemeSpec.from_dict("triangulation").scheme == "triangulation"


class TestValidation:
    def test_unknown_spec_key_rejected(self, spec):
        data = spec.to_dict()
        data["workloadz"] = []
        with pytest.raises(ValueError, match="workloadz"):
            ExperimentSpec.from_dict(data)

    def test_unknown_scheme_spec_key_rejected(self):
        with pytest.raises(ValueError, match="confg"):
            SchemeSpec.from_dict({"scheme": "triangulation", "confg": {}})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="plam"):
            CellOverride.from_dict({"plam": {"kind": "uniform"}})

    def test_unknown_scheme_name_lists_valid(self):
        with pytest.raises(KeyError, match="triangulation"):
            SchemeSpec.make("not-a-scheme")

    def test_bad_config_field_rejected_eagerly(self):
        with pytest.raises(ValueError, match="delta"):
            SchemeSpec.make("triangulation", delta=0.9)

    def test_empty_axes_rejected(self, spec):
        with pytest.raises(ValueError, match="no schemes"):
            ExperimentSpec.make("x", workloads=spec.workloads, schemes=[])

    @pytest.mark.parametrize(
        "seeds, match",
        [([1.9, True], r"seeds must be a list of integers"),
         ([1, True], r"seeds must be a list of integers"),
         (3, r"seeds must be a list of integers, got 3")],
    )
    def test_seeds_must_be_integers(self, spec, seeds, match):
        """``[1.9, true]`` would otherwise load as seeds (1, 1)."""
        data = spec.to_dict()
        data["seeds"] = seeds
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        "field, value, match",
        [("n", 32.7, r"workload 'hypercube' n must be an integer, got 32.7"),
         ("n", True, r"workload 'hypercube' n must be an integer, got True"),
         ("seed", 1.5, r"workload 'hypercube' seed must be an integer, got 1.5")],
    )
    def test_workload_scalars_must_be_integers(self, spec, field, value, match):
        data = spec.to_dict()
        data["workloads"][0][field] = value
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_cell_seed_must_be_an_integer(self, spec, seed):
        from repro.experiments import Cell

        data = spec.cells()[0].to_dict()
        data["seed"] = seed
        with pytest.raises(ValueError, match=r"cell seed must be an integer"):
            Cell.from_dict(data)

    def test_integer_scalars_load_as_python_ints(self, spec):
        from repro.experiments import Cell

        again = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert all(type(s) is int for s in again.seeds)
        assert all(type(w.n) is int and type(w.seed) is int for w in again.workloads)
        cell = Cell.from_dict(json.loads(json.dumps(spec.cells()[0].to_dict())))
        assert type(cell.seed) is int
        assert again.spec_hash() == spec.spec_hash()

    def test_unknown_plan_key_rejected(self, spec):
        data = spec.to_dict()
        data["plans"][0]["pares"] = 3
        with pytest.raises(ValueError, match="pares"):
            ExperimentSpec.from_dict(data)


class TestGridExpansion:
    def test_cell_count_is_the_product_with_plan_overrides(self, spec):
        cells = spec.cells()
        # hypercube: 2 schemes x 2 plans x 2 seeds; expline's override
        # pins one plan: 2 schemes x 1 plan x 2 seeds.
        assert len(cells) == 2 * 2 * 2 + 2 * 1 * 2

    def test_keys_are_unique_and_deterministic(self, spec):
        cells = spec.cells()
        assert len({c.key for c in cells}) == len(cells)
        assert [c.key for c in spec.cells()] == [c.key for c in cells]

    def test_override_merges_config_and_replaces_probes(self, spec):
        cells = spec.cells()
        beacon_cells = [c for c in cells if c.label == "beacons-8"]
        assert beacon_cells and all(
            dict(c.config)["beacons"] == 4 and c.probes == ()
            for c in beacon_cells
        )
        tri_cells = [c for c in cells if c.label == "triangulation"]
        assert all(c.probes == ("label-bits",) for c in tri_cells)

    def test_override_pins_plan_per_workload(self, spec):
        expline_cells = [
            c for c in spec.cells() if c.workload.name == "expline"
        ]
        assert all(
            c.plan == PlanConfig(kind="uniform", pairs=10, seed=7)
            for c in expline_cells
        )

    def test_cell_round_trips(self, spec):
        from repro.experiments import Cell

        for cell in spec.cells():
            clone = Cell.from_dict(json.loads(json.dumps(cell.to_dict())))
            assert clone == cell
            assert clone.key == cell.key


class TestSkipOverrides:
    def _spec(self):
        from repro.api.workloads import Workload

        return ExperimentSpec.make(
            "skip-demo",
            workloads=[
                Workload.make("hypercube", n=64, dim=2, seed=0),
                Workload.make("hypercube", n=32, dim=2, seed=0),
            ],
            schemes=[
                SchemeSpec.make("beacons", label="cheap", beacons=4),
                SchemeSpec.make("triangulation", label="heavy", delta=0.3),
            ],
            plans=[PlanConfig(kind="uniform", pairs=10, seed=1)],
            overrides=[
                CellOverride(workload="hypercube(n=64)", scheme="heavy",
                             skip=True),
            ],
        )

    def test_skip_drops_matching_cells_only(self):
        cells = self._spec().cells()
        assert len(cells) == 3  # 2x2 grid minus the skipped cell
        assert not any(
            c.label == "heavy" and c.workload.n == 64 for c in cells
        )
        assert any(c.label == "heavy" and c.workload.n == 32 for c in cells)
        assert sum(c.label == "cheap" for c in cells) == 2

    def test_sized_display_matches_one_scale(self):
        from repro.api.workloads import Workload

        w64 = Workload.make("hypercube", n=64, dim=2, seed=0)
        w32 = Workload.make("hypercube", n=32, dim=2, seed=0)
        rule = CellOverride(workload="hypercube(n=64)")
        scheme = SchemeSpec.make("beacons", beacons=4)
        assert rule.matches(w64, scheme)
        assert not rule.matches(w32, scheme)
        # bare names still match every size
        assert CellOverride(workload="hypercube").matches(w32, scheme)

    def test_skip_round_trips_through_json(self):
        spec = self._spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert len(clone.cells()) == len(spec.cells())
        assert clone.spec_hash() == spec.spec_hash()

    def test_dls_large_ladder(self):
        from repro.experiments.suites import get_suite

        cells = get_suite("dls-large").cells()
        by_label = {}
        for c in cells:
            by_label.setdefault(c.label, set()).add(c.workload.n)
        assert by_label["thm3.2+ids"] == {2000}
        assert by_label["thm3.4-id-free"] == {500}
        assert by_label["tz-k2"] == {10_000, 2000, 500}

    def test_override_n_remaps_sized_skip_rules(self):
        from repro.cli import _override_spec_n
        from repro.experiments.suites import get_suite

        reduced = _override_spec_n(get_suite("dls-large"), 300)
        # Ladder rungs collapse to one workload; the heavy labeling
        # schemes stay fenced out instead of running at the reduced n.
        assert len(reduced.workloads) == 1
        labels = {c.label for c in reduced.cells()}
        assert "thm3.4-id-free" not in labels
        assert "thm3.2+ids" not in labels
        assert {"tz-k2", "beacons-14", "beacons-64"} <= labels
