"""ScaleStructure — the shared X/Y/zooming skeleton of §3."""


import numpy as np
import pytest

from repro.labeling._scales import ScaleStructure


class TestScaleStructure:
    def test_levels(self, scales_hypercube32):
        assert scales_hypercube32.levels_n == 5  # ceil(log2 32)

    def test_rui_cached_matches_metric(self, scales_hypercube32, hypercube32):
        for u in (0, 9):
            for i in range(5):
                assert scales_hypercube32.rui(u, i) == pytest.approx(
                    hypercube32.rui(u, i)
                )

    def test_r_prev_level0_huge(self, scales_hypercube32, hypercube32):
        assert scales_hypercube32.r_prev(0, 0) > hypercube32.diameter()

    def test_net_level_clamps(self, scales_hypercube32):
        s = scales_hypercube32
        assert s.net_level(0.0) == 0
        assert s.net_level(s.base / 2) == 0
        assert s.net_level(1e12) == s.nets.levels - 1

    def test_rejects_bad_delta(self, hypercube32):
        with pytest.raises(ValueError):
            ScaleStructure(hypercube32, delta=0.0)
        with pytest.raises(ValueError):
            ScaleStructure(hypercube32, delta=1.0)


class TestXNeighbors:
    def test_reachability_bound(self, scales_hypercube32, hypercube32):
        """d(u, h_B) + radius(B) <= r_{u,i-1} for every X_i-neighbor."""
        s = scales_hypercube32
        for u in (0, 7, 31):
            for i in range(s.levels_n):
                bound = s.r_prev(u, i)
                for h in s.x_neighbors(u, i):
                    ball = next(
                        b for b in s.packings[i].balls if b.center == h
                    )
                    assert hypercube32.distance(u, h) + ball.radius <= bound + 1e-9

    def test_level0_global(self, scales_hypercube32, hypercube32):
        """X_u0 coincides across nodes (r_{u,-1} = inf convention)."""
        s = scales_hypercube32
        sets = {s.x_neighbors(u, 0) for u in range(hypercube32.n)}
        assert len(sets) == 1

    def test_nearest_x_neighbor(self, scales_hypercube32, hypercube32):
        s = scales_hypercube32
        for u in (3, 19):
            for i in (1, 2):
                x = s.nearest_x_neighbor(u, i)
                if x is None:
                    continue
                row = hypercube32.distances_from(u)
                assert all(row[x] <= row[w] for w in s.x_neighbors(u, i))


class TestYNeighbors:
    def test_level0_global(self, scales_hypercube32, hypercube32):
        s = scales_hypercube32
        sets = {s.y_neighbors(u, 0) for u in range(hypercube32.n)}
        assert len(sets) == 1

    def test_members_are_net_points_in_ball(self, scales_hypercube32, hypercube32):
        s = scales_hypercube32
        for u in (0, 15):
            for i in range(1, s.levels_n):
                level = s.y_level(u, i)
                net_set = set(s.nets.net(level))
                radius = 12.0 * s.rui(u, i) / s.delta
                row = hypercube32.distances_from(u)
                for v in s.y_neighbors(u, i):
                    assert v in net_set
                    assert row[v] <= radius + 1e-9

    def test_zoom_node_is_y_neighbor(self, scales_hypercube32):
        """The paper: f_ui is a Y_i-neighbor of u by definition."""
        s = scales_hypercube32
        for u in (0, 9, 31):
            for i in range(s.levels_n):
                assert s.zoom_node(u, i) in set(s.y_neighbors(u, i))


class TestZooming:
    def test_zoom_within_quarter_radius(self, scales_hypercube32, hypercube32):
        s = scales_hypercube32
        for u in (2, 21):
            for i in range(s.levels_n):
                f = s.zoom_node(u, i)
                assert hypercube32.distance(u, f) <= s.rui(u, i) / 4.0 + 1e-12

    def test_sequence_length(self, scales_hypercube32):
        assert len(scales_hypercube32.zooming_sequence(0)) == 5

    def test_claim_3_6_common_neighborhood(self, scales_hypercube32, hypercube32):
        """Claim 3.6: f_vj is a Y_j-neighbor of u for j below the critical
        scale of the pair (u, v)."""
        s = scales_hypercube32
        for u, v in [(0, 31), (5, 20), (3, 4)]:
            d = hypercube32.distance(u, v)
            r = (1 + s.delta) * d
            # Critical i: r_ui < r + d <= r_{u,i-1}.
            i_crit = next(
                (
                    i
                    for i in range(s.levels_n)
                    if s.rui(u, i) < r + d <= s.r_prev(u, i)
                ),
                None,
            )
            if i_crit is None:
                continue
            for j in range(i_crit):
                assert s.zoom_node(v, j) in set(s.y_neighbors(u, j))

    def test_exponential_line_scales(self, scales_expline32):
        """The huge-aspect-ratio workload builds and zooms fine."""
        s = scales_expline32
        for u in (0, 16, 31):
            seq = s.zooming_sequence(u)
            assert len(seq) == s.levels_n


class TestAllNeighbors:
    @pytest.mark.parametrize("name", ["scales_hypercube32", "scales_expline32"])
    def test_sorted_int64_union_of_the_scale_sets(self, request, name):
        s = request.getfixturevalue(name)
        for u in range(s.metric.n):
            union = set()
            for i in range(s.levels_n):
                union.update(s.x_neighbors(u, i), s.y_neighbors(u, i))
            got = s.all_neighbors(u)
            assert got.dtype == np.int64
            assert got.tolist() == sorted(union)

    def test_scale_sets_are_the_closed_ball_definitions(self):
        """On an evenly spaced line many net points and packing balls sit
        exactly on the X and Y radii, so the boundary ties are decided."""
        from repro.metrics import uniform_line

        metric = uniform_line(96)
        s = ScaleStructure(metric, delta=0.3)
        for u in range(metric.n):
            row = metric.distances_from(u)
            for i in range(s.levels_n):
                bound = s.r_prev(u, i)
                reach = {b.center for b in s.packings[i] if row[b.center] + b.radius <= bound}
                assert s.x_neighbors(u, i) == tuple(sorted(reach))
                level = s.y_level(u, i)
                if i == 0:
                    ball = s.nets.net(level)
                else:
                    radius = s.y_ball_factor * s.rui(u, i) / s.delta
                    ball = s.nets.members_in_ball(level, u, radius).tolist()
                assert s.y_neighbors(u, i) == tuple(sorted(ball))

    def test_accessors_return_tuples_of_ints(self, scales_expline32):
        s = scales_expline32
        for i in range(s.levels_n):
            for ids in (s.x_neighbors(5, i), s.y_neighbors(5, i)):
                assert type(ids) is tuple
                assert all(type(v) is int for v in ids)
