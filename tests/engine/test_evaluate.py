"""Batched evaluation drivers and the api.evaluate facade."""

import numpy as np
import pytest

from repro import api
from repro.engine import (
    AllPairsPlan,
    UniformSamplePlan,
    evaluate_estimator,
    evaluate_routing,
)


@pytest.fixture(scope="module")
def workload():
    return api.build_workload("hypercube", n=48, dim=2, seed=21)


@pytest.fixture(scope="module")
def beacons(workload):
    return api.build("beacons", workload=workload, beacons=12, seed=2)


class TestEvaluateEstimator:
    def test_matches_per_pair_loop(self, workload, beacons):
        metric = workload.metric
        plan = UniformSamplePlan(size=250, seed=4)
        report = evaluate_estimator(beacons.inner, metric, plan)
        pairs = plan.pairs(metric)
        rels = []
        for u, v in pairs:
            d = metric.distance(int(u), int(v))
            est = beacons.inner.estimate(int(u), int(v))
            if d > 0 and np.isfinite(est):
                rels.append(abs(est - d) / d)
        assert report.evaluated == len(rels)
        assert report.max_relative_error == pytest.approx(max(rels))
        assert report.mean_relative_error == pytest.approx(float(np.mean(rels)))

    def test_estimate_many_agrees_with_scalar(self, beacons):
        pairs = UniformSamplePlan(size=150, seed=7).pairs(beacons.workload.metric)
        batched = beacons.inner.estimate_many(pairs[:, 0], pairs[:, 1])
        scalar = np.array(
            [beacons.inner.estimate(int(u), int(v)) for u, v in pairs]
        )
        assert np.array_equal(batched, scalar)

    def test_empty_plan(self, workload, beacons):
        report = evaluate_estimator(beacons.inner, workload.metric, [])
        assert report.pairs == 0 and report.evaluated == 0


class TestEvaluateRouting:
    @pytest.fixture(scope="class")
    def routed(self):
        return api.build("route-thm2.1", workload="knn-graph", n=40, seed=5)

    def test_all_pairs_plan_equals_exhaustive(self, routed):
        n = routed.inner.graph.n
        via_plan = evaluate_routing(routed.inner, routed._matrix, AllPairsPlan())
        exhaustive = evaluate_routing(
            routed.inner, routed._matrix,
            [(u, v) for u in range(n) for v in range(n) if u != v],
        )
        assert via_plan.pairs == exhaustive.pairs
        assert via_plan.stretches == exhaustive.stretches

    def test_stratified_plan_with_metric(self, routed):
        from repro.engine import StratifiedPlan

        stats = evaluate_routing(
            routed.inner, routed._matrix,
            StratifiedPlan(per_scale=8, seed=2),
            metric=routed.workload.metric,
        )
        assert stats.pairs > 0 and stats.delivered == stats.pairs


@pytest.mark.parametrize("name", api.SCHEMES.names())
def test_stats_is_evaluate_on_a_uniform_plan(name):
    """``stats()`` reports what ``evaluate()`` reports on the same
    uniform plan, for every registered scheme."""
    fitted = api.build(name, "knn-graph", n=32, seed=0, cache=api.BuildCache())
    stats = fitted.stats(samples=60, seed=4)
    report = api.evaluate(fitted, "uniform", size=60, seed=4)
    shared = sorted(stats.keys() & report.keys())
    assert shared
    assert [stats[key] for key in shared] == [report[key] for key in shared]


class TestFacadeEvaluate:
    def test_estimator_by_name(self, beacons):
        stats = api.evaluate(beacons, "uniform", size=100, seed=3)
        assert stats["sampled_pairs"] > 0
        assert stats["max_stretch"] >= 1.0

    def test_plan_config(self, beacons):
        cfg = api.PlanConfig(kind="uniform", pairs=100, seed=3)
        assert api.evaluate(beacons, cfg) == api.evaluate(
            beacons, "uniform", size=100, seed=3
        )
        with pytest.raises(ValueError):
            api.evaluate(beacons, cfg, size=5)

    def test_plan_config_validates(self):
        with pytest.raises(ValueError):
            api.PlanConfig(kind="nope")
        with pytest.raises(ValueError):
            api.PlanConfig(pairs=0)

    def test_routing_scheme(self):
        routed = api.build("route-trivial", workload="knn-graph", n=24, seed=1)
        stats = api.evaluate(routed, "uniform", size=60, seed=2)
        assert stats["delivery_rate"] == 1.0
        assert stats["max_stretch"] == pytest.approx(1.0)

    def test_smallworld_scheme(self):
        sw = api.build("sw-5.2a", workload="hypercube", n=32, seed=3)
        stats = api.evaluate(sw, "uniform", size=50, seed=4)
        assert stats["queries"] == 50
        assert 0 <= stats["completion_rate"] <= 1

    def test_meridian_scheme(self):
        mer = api.build("meridian", workload="internet", n=40, seed=6)
        stats = api.evaluate(mer, "uniform", size=40, seed=7)
        assert stats["queries"] == 40
        assert stats["mean_approximation"] >= 1.0

    def test_stratified_on_estimator(self, beacons):
        stats = api.evaluate(beacons, "stratified", per_scale=8, seed=1)
        assert stats["sampled_pairs"] > 0
