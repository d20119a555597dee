"""Theorem 3.4 — id-free distance labeling."""

import copy
import hashlib

import numpy as np
import pytest

from repro import api
from repro.labeling.dls import RingDLS


@pytest.fixture(scope="module")
def dls32(hypercube32, scales_hypercube32):
    return RingDLS(hypercube32, delta=0.4, scales=scales_hypercube32)


@pytest.fixture(scope="module")
def dls_exp(expline32, scales_expline32):
    return RingDLS(expline32, delta=0.4, scales=scales_expline32)


class TestAccuracy:
    def test_sound_upper_bound_hypercube(self, dls32, hypercube32):
        """D+ >= true distance (up to nothing: encoding rounds up)."""
        for u, v in hypercube32.pairs():
            assert dls32.estimate(u, v) >= hypercube32.distance(u, v) - 1e-12

    def test_approximation_hypercube(self, dls32, hypercube32):
        """D+ <= (1+O(delta)) d for every pair (here O(delta) ~ 2.2 delta
        including quantization)."""
        bound = 1 + 2.5 * dls32.delta
        for u, v in hypercube32.pairs():
            d = hypercube32.distance(u, v)
            assert dls32.estimate(u, v) <= bound * d + 1e-9

    def test_sound_and_tight_expline(self, dls_exp, expline32):
        bound = 1 + 2.5 * dls_exp.delta
        for u, v in expline32.pairs():
            d = expline32.distance(u, v)
            est = dls_exp.estimate(u, v)
            assert d - 1e-9 * d <= est <= bound * d + 1e-9

    def test_self_zero(self, dls32):
        assert dls32.estimate(11, 11) == 0.0

    def test_symmetric_estimates(self, dls32):
        for u, v in [(0, 31), (4, 17)]:
            assert dls32.estimate(u, v) == pytest.approx(dls32.estimate(v, u))


def _only_labels_of(dls, keep):
    """A copy of ``dls`` in which every label of a node outside ``keep``
    holds no usable value: NaN segment distances and ζ targets (w_typ,
    w_idx) of 0.  Key columns and offsets stay, so any search layout
    built over them still works."""
    meta, arrays = dls.to_arrays()
    n, levels_n = meta["n"], meta["levels_n"]
    foreign = ~np.isin(np.arange(n), keep)
    seg_dist = arrays["seg_dist"].copy()
    seg_dist[np.repeat(np.repeat(foreign, 2 * levels_n), np.diff(arrays["seg_indptr"]))] = np.nan
    zeta = arrays["zeta_data"].copy()
    zeta[np.repeat(np.repeat(foreign, levels_n - 1), np.diff(arrays["zeta_indptr"])), 3:] = 0
    out = copy.copy(dls)
    out._adopt({**arrays, "seg_dist": seg_dist, "zeta_data": zeta}, levels_n,
               meta["size_categories"])
    return out


def _chain(dls, u, v):
    """u's zooming chain identified in the labels of u and v: one
    ((typ, idx) in u's label, (typ, idx) in v's) pair per level."""
    _, _, u_typ, u_idx, v_typ, v_idx = dls._chains(np.array([u]), np.array([v]))
    return list(zip(zip(u_typ.tolist(), u_idx.tolist()), zip(v_typ.tolist(), v_idx.tolist())))


class TestIdFreeDecoding:
    @pytest.mark.parametrize("u, v", [(2, 9), (0, 31), (5, 28), (17, 4)])
    def test_decoding_uses_labels_only(self, dls32, u, v):
        """Theorem 3.4 decodes from the two labels alone: overwriting
        every other label changes no answer."""
        local = _only_labels_of(dls32, [u, v])
        assert local.estimate(u, v) == dls32.estimate(u, v)
        assert np.array_equal(local.estimate_many([u, v], [v, u]),
                              dls32.estimate_many([u, v], [v, u]))

    def test_chain_identifies_anchor(self, dls32):
        pairs = _chain(dls32, 0, 1)
        assert len(pairs) >= 1  # at least f_u0 is always identified

    def test_chain_pointers_refer_to_same_node(self, dls32):
        """Simulation-level check that identification is correct."""
        for u, v in [(0, 1), (5, 28)]:
            pairs = _chain(dls32, u, v)
            zoom = dls32.scales.zooming_sequence(u)
            for level, (pu, pv) in enumerate(pairs):
                node_u = dls32.segment_node(u, level, *pu)
                node_v = dls32.segment_node(v, level, *pv)
                assert node_u == node_v == zoom[level]


#: workload -> (n, sha256 of estimate_many's float64 bytes on _digest_pairs),
#: recorded on the per-node label objects and dict decoders that the
#: arrays replaced, where estimate equalled estimate_many on these pairs.
ANSWERS = {
    "hypercube": (64, "fdfa4a84ab658c604f903f37915d951b59fce1472ed52bd71cedca789b0b02ea"),
    "expline": (32, "a2d77b52978e9b9e64d06951cdba29efe35a4f59a93aef44812da934fbfe70f3"),
    "uline": (48, "f085689415e587ef97c1f494d2e8824309ac07227e2560197acb2a7532feb937"),
}


def _digest_pairs(n):
    """500 seeded pairs, diagonal pairs, then the first 40 pairs again."""
    pairs = np.random.default_rng(2029).integers(0, n, size=(500, 2))
    diagonal = np.stack([np.arange(0, n, 5)] * 2, axis=1)
    return np.concatenate([pairs, diagonal, pairs[:40]])


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_answers_are_pinned(name):
    n, golden = ANSWERS[name]
    dls = api.build("labels", name, n=n, seed=0, cache=api.BuildCache()).inner
    pairs = _digest_pairs(n)
    answers = dls.estimate_many(pairs[:, 0], pairs[:, 1])
    assert hashlib.sha256(answers.astype(np.float64).tobytes()).hexdigest() == golden
    for (u, v), answer in zip(pairs[::25].tolist(), answers[::25]):
        assert dls.estimate(u, v) == answer


class TestSizes:
    def test_label_components(self, dls32):
        account = dls32.label_bits(0)
        assert "neighbor_distances" in account.components
        assert "zoom_anchor" in account.components

    def test_virtual_neighbor_count_bounded(self, dls32, hypercube32):
        assert dls32.max_virtual_neighbors() <= hypercube32.n

    def test_mean_at_most_max(self, dls32):
        assert dls32.mean_label_bits() <= dls32.max_label_bits()

    def test_rejects_big_delta(self, hypercube32):
        with pytest.raises(ValueError, match="1/2"):
            RingDLS(hypercube32, delta=0.7)

    def test_no_global_ids_in_label(self, dls32):
        """The whole point of Theorem 3.4: labels carry no node ids."""
        assert "neighbor_ids" not in dls32.label_bits(3).components
