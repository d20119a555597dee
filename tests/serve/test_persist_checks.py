"""What a container holds: the live state under churn, and only label
arrays a triangulation can read correctly.

``api.load`` promises answers bit-for-bit identical to the scheme that
was saved, so a save after churn must write the state reads serve (the
pristine arrays filtered by the live active set), and ``compact()``
must not change it.  A triangulation container whose CSR labels are
malformed would otherwise be served silently wrong: every such file is
refused with a :class:`ContainerError` naming the file and the check.
So is a Theorem 2.1 routing container whose rings, zooming entries,
labels or dense first-hop table would route wrong, a routing container
whose graph adjacency would, a beacons container whose beacons or
labels would answer wrong, a Theorem 3.4 labels container whose
segments, translation tables or zooming sequences would, and a
Thorup–Zwick oracle whose bunches, levels or pivots would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.serve.container import ContainerError, read_container, write_container

N = 200


def _active_pairs(active: np.ndarray, k: int = 500) -> np.ndarray:
    ids = np.flatnonzero(active)
    rng = np.random.default_rng(3)
    return np.stack([rng.choice(ids, k), rng.choice(ids, k)], axis=1)


def _answers(fitted, pairs) -> np.ndarray:
    return fitted.inner.estimate_many(pairs[:, 0], pairs[:, 1])


class TestSaveDuringPendingChurn:
    def test_beacons_save_the_live_beacon_set(self, tmp_path):
        fitted = api.build("beacons", "hypercube", n=N, seed=0)
        gone = int(fitted.inner.beacons[0])
        api.update(fitted, leaves=[gone])
        live_hash = api.save(fitted, tmp_path / "live.repro")
        loaded = api.load(tmp_path / "live.repro")
        active = np.ones(N, dtype=bool)
        active[gone] = False
        pairs = _active_pairs(active)
        assert gone not in loaded.inner.beacons.tolist()
        assert np.array_equal(_answers(loaded, pairs), _answers(fitted, pairs))
        fitted.compact()
        assert api.save(fitted, tmp_path / "merged.repro") == live_hash

    def test_triangulation_saves_the_live_labels(self, tmp_path):
        fitted = api.build("triangulation", "hypercube", n=N, seed=0)
        gone = [7, 11, 40]
        api.update(fitted, leaves=gone)
        live_hash = api.save(fitted, tmp_path / "live.repro")
        loaded = api.load(tmp_path / "live.repro")
        saved_ids = np.asarray(loaded.container.arrays["label_ids"])
        assert not np.isin(saved_ids, gone).any()
        assert loaded.inner.beacons_of(5) == fitted.inner.beacons_of(5)
        assert 7 not in loaded.inner.beacons_of(5)
        active = np.ones(N, dtype=bool)
        active[gone] = False
        pairs = _active_pairs(active)
        assert np.array_equal(_answers(loaded, pairs), _answers(fitted, pairs))
        fitted.compact()
        assert api.save(fitted, tmp_path / "merged.repro") == live_hash

    @pytest.mark.parametrize("scheme", ["beacons", "triangulation"])
    def test_a_never_updated_save_holds_the_built_arrays(self, scheme, tmp_path):
        fitted = api.build(scheme, "hypercube", n=40, seed=0)
        _, arrays = fitted.inner.to_arrays()
        _, again = fitted.inner.to_arrays()
        for name, array in arrays.items():
            assert again[name] is array  # nothing recomputed or copied


def _tampered_copy(source, path, name, change):
    """Write ``source``'s container to ``path`` with segment ``name``
    rewritten as ``change(array, arrays)``."""
    container = read_container(source, mmap=False)
    arrays = {key: np.array(value) for key, value in container.arrays.items()}
    arrays[name] = change(arrays[name], arrays)
    write_container(path, kind=container.kind, meta=container.meta, arrays=arrays)
    return path


def _save_tampered(tmp_path, scheme, name, change):
    """Save a 40-node ``scheme`` on hypercube, then rewrite segment
    ``name`` of its container as ``change(array, arrays)``."""
    fitted = api.build(scheme, "hypercube", n=40, seed=0)
    path = tmp_path / f"{scheme}.repro"
    api.save(fitted, path)
    return fitted, _tampered_copy(path, path, name, change)


def _shift_row(ids, arrays, row=7, by=40):
    indptr = arrays["label_indptr"]
    ids[indptr[row] : indptr[row + 1]] += by
    return ids


def _swap_in_row(ids, arrays, row=7):
    lo = arrays["label_indptr"][row]
    ids[[lo, lo + 1]] = ids[[lo + 1, lo]]
    return ids


def _repeat_in_row(ids, arrays, row=7):
    lo = arrays["label_indptr"][row]
    ids[lo + 1] = ids[lo]
    return ids


def _set(index, value):
    def change(array, arrays):
        array = array.astype(np.result_type(array, np.asarray(value)))
        array[index] = value
        return array

    return change


MALFORMED = {
    "id-past-n": ("label_ids", _shift_row, "in \\[0, 40\\)"),
    "negative-id": ("label_ids", _set(0, -1), "in \\[0, 40\\)"),
    "ids-unsorted-in-row": ("label_ids", _swap_in_row, "strictly increasing"),
    "ids-repeated-in-row": ("label_ids", _repeat_in_row, "strictly increasing"),
    "ids-not-integers": ("label_ids", lambda ids, arrays: ids.astype(float), "integers"),
    "indptr-short": ("label_indptr", lambda p, arrays: p[:-1], "n \\+ 1 = 41 entries"),
    "indptr-not-from-0": ("label_indptr", _set(0, 1), "start at 0"),
    "indptr-decreasing": ("label_indptr", _set(5, 0), "never decrease"),
    "indptr-past-ids": ("label_indptr", lambda p, arrays: p * 2, "end at"),
    "dist-short": ("label_dist", lambda d, arrays: d[:-1], "one entry per label id"),
    "dist-inf": ("label_dist", _set(3, np.inf), "finite and >= 0"),
    "dist-nan": ("label_dist", _set(3, np.nan), "finite and >= 0"),
    "dist-negative": ("label_dist", _set(3, -0.5), "finite and >= 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_triangulation_container_is_refused(tmp_path, case):
    name, change, check = MALFORMED[case]
    _, path = _save_tampered(tmp_path, "triangulation", name, change)
    with pytest.raises(ContainerError, match=check) as err:
        api.load(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name", ["label_dist", "label_dist_quantized"])
def test_malformed_dls_distance_block_is_refused(tmp_path, name):
    _, path = _save_tampered(tmp_path, "labels-tri", name, _set(3, np.inf))
    with pytest.raises(ContainerError, match=f"{name} must be finite") as err:
        api.load(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("scheme", ["triangulation", "labels-tri"])
def test_well_formed_containers_still_load(tmp_path, scheme):
    fitted, path = _save_tampered(tmp_path, scheme, "label_ids", lambda ids, arrays: ids)
    loaded = api.load(path)
    pairs = _active_pairs(np.ones(40, dtype=bool), 200)
    assert np.array_equal(_answers(loaded, pairs), _answers(fitted, pairs))


def _save_tampered_routing(tmp_path, name, change):
    """Save Theorem 2.1 routing on a 40-node k-NN graph, then rewrite
    segment ``name`` of its container as ``change(array, arrays)``."""
    fitted = api.build("route-thm2.1", "knn-graph", n=40, seed=0, delta=0.3)
    path = tmp_path / "route.repro"
    api.save(fitted, path)
    return fitted, _tampered_copy(path, path, name, change)


def _wide_ring(arrays) -> int:
    """The first ring row with two members or more."""
    return int(np.flatnonzero(np.diff(arrays["ring_indptr"]) >= 2)[0])


def _shift_ring(members, arrays, by=40):
    indptr, row = arrays["ring_indptr"], _wide_ring(arrays)
    members[indptr[row] : indptr[row + 1]] += by
    return members


def _swap_in_ring(members, arrays):
    lo = arrays["ring_indptr"][_wide_ring(arrays)]
    members[[lo, lo + 1]] = members[[lo + 1, lo]]
    return members


def _neighbor_on_diagonal(hops, arrays, u=3):
    hops[u, u] = hops[u, 0]  # a neighbor of u, where u itself belongs
    return hops


MALFORMED_ROUTING = {
    "indptr-short": ("ring_indptr", lambda p, arrays: p[:-1], "n·levels \\+ 1 = \\d+ entries"),
    "indptr-not-from-0": ("ring_indptr", _set(0, 1), "ring_indptr must start at 0"),
    "indptr-decreasing": ("ring_indptr", _set(5, 0), "ring_indptr must never decrease"),
    "indptr-past-members": ("ring_indptr", lambda p, arrays: p * 2,
                            "must end at len\\(ring_members\\)"),
    "member-past-n": ("ring_members", _shift_ring, "ring_members must lie in \\[0, 40\\)"),
    "negative-member": ("ring_members", _set(0, -1), "ring_members must lie in \\[0, 40\\)"),
    "members-unsorted-in-ring": ("ring_members", _swap_in_ring, "strictly increasing"),
    "members-not-integers": ("ring_members", lambda m, arrays: m.astype(float),
                             "must hold integers"),
    "zoom-shape": ("zoom", lambda z, arrays: z[:, :-1],
                   "zoom must be an integer array of shape"),
    "zoom-not-integers": ("zoom", lambda z, arrays: z.astype(float),
                          "zoom must be an integer array"),
    "zoom-past-n": ("zoom", _set((3, 1), 40), "zoom entries must lie in \\[-1, 40\\)"),
    "zoom-below-minus-1": ("zoom", _set((3, 1), -2), "zoom entries must lie in \\[-1, 40\\)"),
    "labels-shape": ("label_indices", lambda li, arrays: li[:-1],
                     "label_indices must be an integer array of shape"),
    "labels-below-minus-1": ("label_indices", _set((3, 0), -2),
                             "label_indices entries must be >= -1"),
    # route(0, 39) went over the non-edge (0, 1) and reached its target
    "hop-not-a-neighbor": ("first_hop", _set(0, 1), "must be neighbors of their row's node"),
    # route(0, 39) raised IndexError from inside the route
    "hop-past-n": ("first_hop", _set(0, 99), "first_hop entries must lie in \\[0, 40\\)"),
    "negative-hop": ("first_hop", _set((5, 7), -1), "first_hop entries must lie in \\[0, 40\\)"),
    "hop-off-the-diagonal": ("first_hop", _neighbor_on_diagonal,
                             "each node itself on the diagonal"),
    "hops-shape": ("first_hop", lambda h, arrays: h[:, :-1],
                   "first_hop must be an integer array of shape \\(n, n\\)"),
    "hops-not-integers": ("first_hop", lambda h, arrays: h.astype(float),
                          "first_hop must be an integer array"),
    "hop-dist-shape": ("first_hop_dist", lambda d, arrays: d[:-1],
                       "first_hop_dist must be a float array of shape"),
    "hop-dist-nan": ("first_hop_dist", _set((2, 9), np.nan), "finite and >= 0"),
    "hop-dist-negative": ("first_hop_dist", _set((2, 9), -1.0), "finite and >= 0"),
    "hop-dist-diagonal": ("first_hop_dist", _set((4, 4), 0.5), "0 on the diagonal"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROUTING))
def test_malformed_routing_container_is_refused(tmp_path, case):
    name, change, check = MALFORMED_ROUTING[case]
    _, path = _save_tampered_routing(tmp_path, name, change)
    with pytest.raises(ContainerError, match=check) as err:
        api.load(path)
    assert str(path) in str(err.value)


def test_well_formed_routing_container_still_loads(tmp_path):
    fitted, path = _save_tampered_routing(tmp_path, "zoom", lambda z, arrays: z)
    loaded = api.load(path)
    for u, v in [(0, 39), (7, 21), (33, 2)]:
        assert loaded.inner.route(u, v).path == fitted.inner.route(u, v).path


@pytest.fixture(scope="module", params=["route-trivial", "route-thm2.1"])
def saved_graph_router(request, tmp_path_factory):
    """A routing scheme on a 40-node lazy k-NN graph, built and saved once."""
    fitted = api.build(request.param, "knn-graph", n=40, seed=0, delta=0.3,
                       workload_params={"dense": False})
    path = tmp_path_factory.mktemp("graph") / "route.repro"
    api.save(fitted, path)
    return fitted, path


def _self_link(targets, arrays):
    targets[arrays["adj_indptr"][3]] = 3  # row 3's first link back to 3
    return targets


# Every case loaded before the adjacency check existed (the target past n
# and the short indptr raised an untyped IndexError); a negative weight
# then aborted a route on the trivial scheme and grew without bound on
# Theorem 2.1's.  No case routes on the tampered graph.
MALFORMED_GRAPHS = {
    "indptr-short": ("adj_indptr", lambda p, arrays: p[:-1], "adj_indptr must have n \\+ 1 = 41"),
    "indptr-decreasing": ("adj_indptr", _set(5, 0), "adj_indptr must never decrease"),
    "target-past-n": ("adj_targets", _set(0, 999), "adj_targets must lie in \\[0, 40\\)"),
    "negative-target": ("adj_targets", _set(0, -1), "adj_targets must lie in \\[0, 40\\)"),
    "targets-not-integers": ("adj_targets", lambda t, arrays: t.astype(float),
                             "adj_targets must be a one-dimensional integer array"),
    "self-link": ("adj_targets", _self_link, "never be their own row's node"),
    "weight-negative": ("adj_weights", _set(0, -1.0), "adj_weights must be finite and > 0"),
    "weight-nan": ("adj_weights", _set(0, np.nan), "adj_weights must be finite and > 0"),
    "weight-zero": ("adj_weights", _set(0, 0.0), "adj_weights must be finite and > 0"),
    "weights-short": ("adj_weights", lambda w, arrays: w[:-1], "one entry per target"),
    "weight-one-way": ("adj_weights", lambda w, arrays: w * np.r_[2.0, np.ones(w.size - 1)],
                       "also be present as \\(v, u, w\\)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_malformed_routing_graph_is_refused(saved_graph_router, tmp_path, case):
    name, change, check = MALFORMED_GRAPHS[case]
    path = _tampered_copy(saved_graph_router[1], tmp_path / "route.repro", name, change)
    with pytest.raises(ContainerError, match=check) as err:
        api.load(path)
    assert str(path) in str(err.value)


def test_well_formed_routing_graph_still_loads(saved_graph_router, tmp_path):
    fitted, source = saved_graph_router
    path = _tampered_copy(source, tmp_path / "route.repro", "adj_weights", lambda w, arrays: w)
    loaded = api.load(path)
    for u, v in [(0, 39), (7, 21)]:
        assert loaded.inner.route(u, v).path == fitted.inner.route(u, v).path


def _repeat_beacon(beacons, arrays):
    beacons[1] = beacons[0]
    return beacons


# Every case loaded and served before the beacons check existed: a NaN
# label served NaN, a negative one a wrong estimate.
MALFORMED_BEACONS = {
    "beacon-past-n": ("beacons", _set(0, 999), "beacons must lie in \\[0, 40\\)"),
    "negative-beacon": ("beacons", _set(0, -1), "beacons must lie in \\[0, 40\\)"),
    "beacons-repeated": ("beacons", _repeat_beacon, "beacons must be distinct"),
    "beacons-not-integers": ("beacons", lambda b, arrays: b.astype(float),
                             "beacons must be a one-dimensional integer array"),
    "labels-short": ("labels", lambda lab, arrays: lab[:10],
                     "labels must be a float array of shape \\(n, len\\(beacons\\)\\)"),
    "labels-narrow": ("labels", lambda lab, arrays: lab[:, :-1],
                      "labels must be a float array of shape"),
    "label-nan": ("labels", _set((0, 0), np.nan), "labels must be finite and >= 0"),
    "label-negative": ("labels", _set((0, 0), -5.0), "labels must be finite and >= 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BEACONS))
def test_malformed_beacons_container_is_refused(tmp_path, case):
    name, change, check = MALFORMED_BEACONS[case]
    _, path = _save_tampered(tmp_path, "beacons", name, change)
    with pytest.raises(ContainerError, match=check) as err:
        api.load(path)
    assert str(path) in str(err.value)


def _shift_bunch(ids, arrays, row=7, by=40):
    indptr = arrays["bunch_indptr"]
    ids[indptr[row] : indptr[row + 1]] += by
    return ids


def _swap_in_bunch(ids, arrays, row=7):
    lo = arrays["bunch_indptr"][row]
    ids[[lo, lo + 1]] = ids[[lo + 1, lo]]
    return ids


def _drop_from_bunch(row, node):
    """Delete ``node`` from bunch ``row``: its id, its distance and one
    offset of every later row."""
    def change(ids, arrays):
        indptr = arrays["bunch_indptr"]
        lo, hi = indptr[row], indptr[row + 1]
        at = lo + int(np.flatnonzero(ids[lo:hi] == node)[0])
        arrays["bunch_dist"] = np.delete(arrays["bunch_dist"], at)
        indptr[row + 1 :] -= 1
        return np.delete(ids, at)

    return change


MALFORMED_TZ = {
    "bunch-id-past-n": ("bunch_ids", _shift_bunch, "bunch_ids must lie in \\[0, 40\\)"),
    "negative-bunch-id": ("bunch_ids", _set(0, -1), "bunch_ids must lie in \\[0, 40\\)"),
    "bunch-ids-unsorted": ("bunch_ids", _swap_in_bunch, "bunch_ids must be strictly increasing"),
    "bunch-indptr-short": ("bunch_indptr", lambda p, arrays: p[:-1], "n \\+ 1 = 41 entries"),
    "bunch-indptr-decreasing": ("bunch_indptr", _set(5, 0), "bunch_indptr must never decrease"),
    "level-indptr-short": ("level_indptr", lambda p, arrays: p[:-1], "k \\+ 1 = 3 entries"),
    "level-id-past-n": ("level_ids", _set(-1, 40), "level_ids must lie in \\[0, 40\\)"),
    "level-ids-not-integers": ("level_ids", lambda ids, arrays: ids.astype(float),
                               "must hold integers"),
    "bunch-dist-short": ("bunch_dist", lambda d, arrays: d[:-1],
                         "bunch_dist must have one entry per bunch id"),
    "bunch-dist-nan": ("bunch_dist", _set(3, np.nan), "bunch_dist must be finite and >= 0"),
    "bunch-dist-negative": ("bunch_dist", _set(3, -0.5), "bunch_dist must be finite and >= 0"),
    "pivots-shape": ("pivots", lambda p, arrays: p[:, :-1],
                     "pivots must be an integer array of shape \\(n, k\\)"),
    "pivots-not-integers": ("pivots", lambda p, arrays: p.astype(float),
                            "pivots must be an integer array"),
    "pivot-past-n": ("pivots", _set((3, 1), 40), "pivots entries must lie in \\[0, 40\\)"),
    "negative-pivot": ("pivots", _set((3, 0), -1), "pivots entries must lie in \\[0, 40\\)"),
    "pivot-dist-shape": ("pivot_dist", lambda d, arrays: d[:-1],
                         "pivot_dist must be a float array of shape \\(n, k\\)"),
    "pivot-dist-inf": ("pivot_dist", _set((2, 1), np.inf),
                       "pivot_dist entries must be finite and >= 0"),
    "pivot-dist-negative": ("pivot_dist", _set((2, 0), -1.0),
                            "pivot_dist entries must be finite and >= 0"),
    # The walk reads d(a, w) and d(b, w) from the bunches: each of these
    # makes some pair read a bunch that does not hold w.
    "node-outside-its-own-bunch": ("bunch_ids", _drop_from_bunch(7, 7),
                                   "every node must be in its own bunch"),
    "pivot-outside-its-bunch": ("pivots", _set((3, 1), 0),
                                "every pivot p_i\\(v\\) must be in the bunch B\\(v\\)"),
    "top-pivot-outside-a-bunch": ("bunch_ids", _drop_from_bunch(2, 21),
                                  "every top-level pivot p_\\{k-1\\} must be in every bunch"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TZ))
def test_malformed_tz_oracle_container_is_refused(tmp_path, case):
    name, change, check = MALFORMED_TZ[case]
    _, path = _save_tampered(tmp_path, "tz-oracle", name, change)
    with pytest.raises(ContainerError, match=check) as err:
        api.load(path)
    assert str(path) in str(err.value)


def test_well_formed_tz_oracle_container_still_loads(tmp_path):
    fitted, path = _save_tampered(tmp_path, "tz-oracle", "bunch_ids", lambda ids, arrays: ids)
    loaded = api.load(path)
    for u, v in _active_pairs(np.ones(40, dtype=bool), 200).tolist():
        assert loaded.inner.estimate(u, v) == fitted.inner.estimate(u, v)


@pytest.fixture(scope="module")
def saved_labels(tmp_path_factory):
    """Theorem 3.4 labels on a 40-node hypercube, built and saved once."""
    fitted = api.build("labels", "hypercube", n=40, seed=0)
    path = tmp_path_factory.mktemp("labels") / "labels.repro"
    api.save(fitted, path)
    return fitted, path


def _grow(array, arrays):
    """One more entry (or row) than the arrays hold."""
    return np.concatenate([array, array[-1:]])


def _widen(array, arrays):
    """One more column than the arrays hold."""
    return np.hstack([array, array[:, -1:]])


def _drop_mid(indptr, arrays):
    indptr[indptr.size // 2] = 0
    return indptr


# Every case loaded without complaint before the load check existed,
# except negative size bits, which SizeAccount refused untyped; so did
# every case from the flat-segment comment on before that check.
MALFORMED_LABELS = {
    "seg-indptr-long": ("seg_indptr", _grow, "seg_indptr must have 2·n·levels_n \\+ 1"),
    "seg-indptr-not-from-0": ("seg_indptr", _set(0, 1), "seg_indptr must start at 0"),
    "seg-indptr-decreasing": ("seg_indptr", _drop_mid, "seg_indptr must never decrease"),
    "seg-indptr-past-dist": ("seg_indptr", lambda p, arrays: p * 2,
                             "seg_indptr must end at len\\(seg_dist\\)"),
    "seg-dist-inf": ("seg_dist", _set(3, np.inf), "seg_dist must be finite and >= 0"),
    "seg-dist-nan": ("seg_dist", _set(3, np.nan), "seg_dist must be finite and >= 0"),
    "seg-dist-negative": ("seg_dist", _set(3, -0.5), "seg_dist must be finite and >= 0"),
    "zeta-indptr-long": ("zeta_indptr", _grow, "zeta_indptr must have n·\\(levels_n - 1\\) \\+ 1"),
    "zeta-indptr-not-from-0": ("zeta_indptr", _set(0, 1), "zeta_indptr must start at 0"),
    "zeta-indptr-decreasing": ("zeta_indptr", _drop_mid, "zeta_indptr must never decrease"),
    "zeta-indptr-past-data": ("zeta_indptr", lambda p, arrays: p * 2,
                              "zeta_indptr must end at len\\(zeta_data\\)"),
    "zeta-type-negative": ("zeta_data", _set((0, 0), -1), "type codes .* must lie in \\[0, 2\\)"),
    "zeta-target-type-negative": ("zeta_data", _set((2, 3), -1),
                                  "type codes .* must lie in \\[0, 2\\)"),
    "zeta-position-negative": ("zeta_data", _set((0, 1), -1), "columns 1, 2 and 4\\) must be >= 0"),
    "zeta-psi-negative": ("zeta_data", _set((0, 2), -3), "columns 1, 2 and 4\\) must be >= 0"),
    "zeta-extra-column": ("zeta_data", _widen, "zeta_data must be an \\(m, 5\\) integer array"),
    "zeta-not-integers": ("zeta_data", lambda z, arrays: z.astype(float),
                          "zeta_data must be an \\(m, 5\\) integer array"),
    "zoom0-negative": ("zoom0_idx", _set(3, -1), "zoom0_idx entries must be >= 0"),
    "zoom0-long": ("zoom0_idx", _grow, "zoom0_idx must be an integer array of shape \\(40,\\)"),
    "zoom-psi-below-minus-1": ("zoom_psi", _set((3, 1), -2), "zoom_psi entries must be >= -1"),
    "zoom-psi-short": ("zoom_psi", lambda z, arrays: z[:, :-1],
                       "zoom_psi must be an integer array of shape"),
    "size-bits-wide": ("size_bits", _widen, "size_bits must be an integer array of shape"),
    "size-bits-negative": ("size_bits", _set((3, 0), -5), "size_bits entries must be >= 0"),
    # Flat segments: a position past its segment's end would read the
    # next segment's distance, and a table's keys must strictly ascend
    # (a repeated key is ambiguous; lookups search sorted keys).
    "zeta-source-past-segment": ("zeta_data", _set((0, 1), 10**6),
                                 "source positions \\(column 1\\) must index their level-i"),
    "zeta-target-past-segment": ("zeta_data", _set((0, 4), 10**6),
                                 "target positions \\(column 4\\) must index their level-\\(i\\+1\\)"),
    "zeta-psi-past-n": ("zeta_data", _set((0, 2), 40), "column 2\\) must be < n = 40"),
    "zeta-keys-unsorted": ("zeta_data", lambda z, arrays: z[[1, 0, *range(2, len(z))]],
                           "keys .* must strictly ascend"),
    "zeta-keys-repeated": ("zeta_data", lambda z, arrays: z[[0, 0, *range(2, len(z))]],
                           "keys .* must strictly ascend"),
    "zoom0-past-segment": ("zoom0_idx", _set(3, 10**6), "zoom0_idx entries must index"),
    "zoom-psi-past-n": ("zoom_psi", _set((3, 1), 40), "zoom_psi entries must be < n = 40"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LABELS))
def test_malformed_labels_container_is_refused(saved_labels, tmp_path, case):
    name, change, check = MALFORMED_LABELS[case]
    path = _tampered_copy(saved_labels[1], tmp_path / "labels.repro", name, change)
    with pytest.raises(ContainerError, match=check) as err:
        api.load(path)
    assert str(path) in str(err.value)


def test_well_formed_labels_container_still_loads(saved_labels, tmp_path):
    fitted, source = saved_labels
    path = _tampered_copy(source, tmp_path / "labels.repro", "zeta_data", lambda z, arrays: z)
    loaded = api.load(path)
    pairs = _active_pairs(np.ones(40, dtype=bool), 200)
    assert np.array_equal(_answers(loaded, pairs), _answers(fitted, pairs))
