"""What a container holds: the live state under churn, and only label
arrays a triangulation can read correctly.

``api.load`` promises answers bit-for-bit identical to the scheme that
was saved, so a save after churn must write the state reads serve (the
pristine arrays filtered by the live active set), and ``compact()``
must not change it.  A triangulation container whose CSR labels are
malformed would otherwise be served silently wrong: every such file is
refused with a :class:`ContainerError` naming the file and the check.
So is a Theorem 2.1 routing container whose rings, zooming entries,
labels or dense first-hop table would route wrong.
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


def _save_tampered(tmp_path, scheme, name, change):
    """Save a 40-node ``scheme`` on hypercube, then rewrite segment
    ``name`` of its container as ``change(array, arrays)``."""
    fitted = api.build(scheme, "hypercube", n=40, seed=0)
    path = tmp_path / f"{scheme}.repro"
    api.save(fitted, path)
    container = read_container(path, mmap=False)
    arrays = {key: np.array(value) for key, value in container.arrays.items()}
    arrays[name] = change(arrays[name], arrays)
    write_container(path, kind=container.kind, meta=container.meta, arrays=arrays)
    return fitted, path


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
    container = read_container(path, mmap=False)
    arrays = {key: np.array(value) for key, value in container.arrays.items()}
    arrays[name] = change(arrays[name], arrays)
    write_container(path, kind=container.kind, meta=container.meta, arrays=arrays)
    return fitted, path


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
