"""Churn over Meridian overlays."""

import numpy as np
import pytest

from repro.distributed import ChurnSimulation
from repro.meridian import MeridianOverlay
from repro.metrics import internet_like_metric


@pytest.fixture(scope="module")
def metric():
    return internet_like_metric(64, seed=77)


class TestChurn:
    def test_no_churn_no_change(self, metric):
        overlay = MeridianOverlay(metric, seed=0)
        before = [dict(node.rings) for node in overlay.nodes]
        sim = ChurnSimulation(metric, overlay, churn_rate=0.0, seed=1)
        report = sim.run_epoch(0)
        assert report.replaced_nodes == 0
        after = [dict(node.rings) for node in overlay.nodes]
        assert before == after

    def test_scrub_removes_leaver_everywhere(self, metric):
        overlay = MeridianOverlay(metric, seed=0)
        sim = ChurnSimulation(metric, overlay, churn_rate=0.0, seed=2)
        sim._scrub_many(np.asarray([5]))
        for node in overlay.nodes:
            for members in node.rings.values():
                assert 5 not in members

    def test_quality_decays_without_repair(self, metric):
        overlay = MeridianOverlay(metric, seed=0)
        sim = ChurnSimulation(metric, overlay, churn_rate=0.2, seed=3)
        reports = sim.run(6, quality_queries=80)
        assert reports[-1].mean_ring_members < reports[0].mean_ring_members + 1

    def test_repair_keeps_quality(self, metric):
        decayed = ChurnSimulation(
            metric, MeridianOverlay(metric, seed=0), churn_rate=0.2, seed=4
        ).run(6, quality_queries=80)
        repaired = ChurnSimulation(
            metric,
            MeridianOverlay(metric, seed=0),
            churn_rate=0.2,
            repair_probes=6,
            seed=4,
        ).run(6, quality_queries=80)
        assert repaired[-1].mean_ring_members >= decayed[-1].mean_ring_members
        assert repaired[-1].mean_approximation <= decayed[-1].mean_approximation * 1.5

    def test_bootstrap_gives_joiner_rings(self, metric):
        overlay = MeridianOverlay(metric, seed=0)
        sim = ChurnSimulation(metric, overlay, churn_rate=0.0, bootstrap_probes=8, seed=5)
        sim._scrub_many(np.asarray([3]))
        overlay.nodes[3].rings = {}
        sim._bootstrap(3)
        assert overlay.nodes[3].out_degree() > 0

    def test_zero_quality_queries(self, metric):
        overlay = MeridianOverlay(metric, seed=0)
        sim = ChurnSimulation(metric, overlay, churn_rate=0.1, seed=8)
        report = sim.run_epoch(0, quality_queries=0)
        assert report.replaced_nodes > 0  # epoch still ran

    def test_rejects_bad_rate(self, metric):
        overlay = MeridianOverlay(metric, seed=0)
        with pytest.raises(ValueError):
            ChurnSimulation(metric, overlay, churn_rate=1.0)
