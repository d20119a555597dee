"""(ε,µ)-packings — Lemma 3.1 / Appendix A guarantees."""

import numpy as np
import pytest

from repro.metrics import eps_mu_packing, exponential_line, random_hypercube_metric
from repro.metrics.base import MetricSpace
from repro.metrics.measure import counting_measure, doubling_measure
from repro.metrics.packing import eps_mu_packings


class TestPackingGuarantees:
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.25, 0.125, 1 / 16])
    def test_covering_guarantee(self, hypercube32, eps):
        """For every u some ball satisfies d(u,center)+radius <= 6 r_u(eps)."""
        packing = eps_mu_packing(hypercube32, eps)
        for u in hypercube32.nodes():
            _ball, reach = packing.covering_ball_for(u)
            r_u = hypercube32.radius_for_fraction(u, eps)
            assert reach <= 6.0 * r_u + 1e-9

    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
    def test_disjointness(self, hypercube32, eps):
        assert eps_mu_packing(hypercube32, eps).verify_disjoint()

    @pytest.mark.parametrize("eps", [0.5, 0.125])
    def test_minimum_measure(self, hypercube32, eps):
        """Each ball has measure >= eps / 2^O(alpha); alpha~2 here, and the
        construction's constant is 16^alpha — assert the generous form."""
        packing = eps_mu_packing(hypercube32, eps)
        floor = eps / (16.0**4)
        for ball in packing:
            assert ball.measure >= floor

    def test_exponential_line(self):
        m = exponential_line(32)
        packing = eps_mu_packing(m, 0.25)
        assert packing.verify_disjoint()
        for u in m.nodes():
            _ball, reach = packing.covering_ball_for(u)
            assert reach <= 6.0 * m.radius_for_fraction(u, 0.25) + 1e-9

    def test_with_doubling_measure(self, hypercube32):
        mu = doubling_measure(hypercube32)
        packing = eps_mu_packing(hypercube32, 0.25, mu=mu)
        assert packing.verify_disjoint()
        for u in (0, 7, 31):
            _ball, reach = packing.covering_ball_for(u)
            assert reach <= 6.0 * mu.radius_for_mass(u, 0.25) + 1e-9


class TestPackingStructure:
    def test_eps_one_single_heavy_region(self, hypercube32):
        packing = eps_mu_packing(hypercube32, 1.0)
        # At eps=1 every candidate covers the whole space; F has one entry.
        assert len(packing) >= 1

    def test_members_match_ball(self, hypercube32):
        packing = eps_mu_packing(hypercube32, 0.25)
        for ball in packing:
            expected = set(
                int(x)
                for x in hypercube32.ball(ball.center, ball.radius)
            )
            assert set(ball.members) == expected

    def test_measure_matches_members(self, hypercube32):
        mu = counting_measure(hypercube32)
        packing = eps_mu_packing(hypercube32, 0.25)
        for ball in packing:
            assert ball.measure == pytest.approx(
                mu.mass(np.asarray(ball.members))
            )

    def test_contains(self, hypercube32):
        packing = eps_mu_packing(hypercube32, 0.5)
        ball = packing.balls[0]
        assert ball.center in ball

    def test_rejects_bad_eps(self, hypercube32):
        with pytest.raises(ValueError):
            eps_mu_packing(hypercube32, 0.0)
        with pytest.raises(ValueError):
            eps_mu_packing(hypercube32, 1.5)

    def test_empty_packing_raises_on_query(self, hypercube32):
        from repro.metrics.packing import EpsMuPacking

        empty = EpsMuPacking(hypercube32, 0.5, [])
        with pytest.raises(ValueError):
            empty.covering_ball_for(0)

    def test_denormal_gap_regression(self):
        """A point pair separated by the smallest denormal float used to
        stall the candidate-ball recursion (min_d/2 underflowed to 0)."""
        from repro.metrics import EuclideanMetric

        m = EuclideanMetric(np.array([0.0, 5e-324, 1.0])[:, None])
        packing = eps_mu_packing(m, 0.5)
        assert packing.verify_disjoint()
        assert len(packing) >= 1


class RowCounter(MetricSpace):
    """Serves ``inner``'s rows and counts, per node, the rows asked of
    ``distances_from`` and ``distances_between``."""

    def __init__(self, inner: MetricSpace) -> None:
        super().__init__()
        self.inner = inner
        self.asked = np.zeros(inner.n, dtype=int)

    @property
    def n(self) -> int:
        return self.inner.n

    def distances_from(self, u):
        self.asked[u] += 1
        return self.inner.distances_from(u)

    def distances_between(self, us, vs):
        np.add.at(self.asked, np.atleast_1d(np.asarray(us, dtype=np.intp)), 1)
        return self.inner.distances_between(us, vs)

    def min_distance(self) -> float:
        return self.inner.min_distance()

    def diameter(self) -> float:
        return self.inner.diameter()


class TestRowReads:
    def test_scale_structure_levels_read_each_row_once(self):
        """The packings of all of a ScaleStructure's levels come from one
        read of each node's row (the per-node construction asked 34,622
        rows here, one per cover centre)."""
        inner = random_hypercube_metric(200, seed=0)
        metric = RowCounter(inner)
        levels = int(np.ceil(np.log2(metric.n)))
        epsilons = [2.0**-i for i in range(levels)]
        packings = eps_mu_packings(metric, epsilons)
        assert metric.asked.max() == 1
        for packing, alone in zip(packings, eps_mu_packings(inner, epsilons)):
            assert packing.balls == alone.balls
