"""Thorup–Zwick distance oracle baseline."""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.labeling import ThorupZwickOracle
from repro.metrics import exponential_line


@pytest.fixture(scope="module")
def oracle64(hypercube64):
    return ThorupZwickOracle(hypercube64, k=2, seed=0)


class TestAccuracy:
    def test_stretch_bound_holds(self, oracle64, hypercube64):
        """Estimates within the guaranteed (2k-1) stretch, never below d."""
        bound = oracle64.stretch_bound() * (1 + 2 * oracle64.codec.relative_error)
        for u, v in hypercube64.pairs():
            d = hypercube64.distance(u, v)
            est = oracle64.estimate(u, v)
            assert d - 1e-9 <= est <= bound * d + 1e-9

    def test_k3_still_sound(self, hypercube64):
        oracle = ThorupZwickOracle(hypercube64, k=3, seed=1)
        bound = 5 * (1 + 2 * oracle.codec.relative_error)
        for u, v in [(0, 63), (5, 40), (17, 18)]:
            d = hypercube64.distance(u, v)
            assert d - 1e-9 <= oracle.estimate(u, v) <= bound * d + 1e-9

    def test_k1_exact_within_quantization(self, hypercube32):
        """k=1: bunches are the whole space, estimates ~exact."""
        oracle = ThorupZwickOracle(hypercube32, k=1, seed=2)
        slack = 1 + 2 * oracle.codec.relative_error
        for u, v in [(0, 31), (3, 4)]:
            d = hypercube32.distance(u, v)
            assert oracle.estimate(u, v) <= slack * d + 1e-9

    def test_self_zero(self, oracle64):
        assert oracle64.estimate(9, 9) == 0.0

    def test_exponential_line(self):
        metric = exponential_line(48)
        oracle = ThorupZwickOracle(metric, k=2, seed=3)
        bound = 3 * (1 + 2 * oracle.codec.relative_error)
        for u, v in metric.pairs():
            d = metric.distance(u, v)
            assert d - 1e-6 * d <= oracle.estimate(u, v) <= bound * d + 1e-9


class TestStructure:
    def test_hierarchy_nested(self, oracle64):
        for upper, lower in zip(oracle64.levels[1:], oracle64.levels[:-1]):
            assert set(int(x) for x in upper) <= set(int(x) for x in lower)

    def test_bunch_contains_pivots(self, oracle64):
        for v in (0, 13, 63):
            for i in range(oracle64.k):
                assert int(oracle64._pivots[v, i]) in oracle64.bunch(v)

    def test_bunch_size_near_theory(self, oracle64, hypercube64):
        """Expected k n^{1/k}; assert within a generous constant."""
        assert oracle64.max_bunch_size() <= 8 * oracle64.expected_bunch_bound()

    def test_label_bits_components(self, oracle64):
        account = oracle64.label_bits(0)
        assert {"bunch_ids", "bunch_distances", "pivot_ids"} <= set(
            account.components
        )

    def test_bigger_k_smaller_bunches(self, hypercube64):
        """The k trade-off: more levels -> smaller bunches (on average)."""
        k2 = ThorupZwickOracle(hypercube64, k=2, seed=4)
        k4 = ThorupZwickOracle(hypercube64, k=4, seed=4)
        mean2 = np.mean([len(k2.bunch(v)) for v in range(64)])
        mean4 = np.mean([len(k4.bunch(v)) for v in range(64)])
        assert mean4 <= mean2 * 1.5

    def test_rejects_bad_k(self, hypercube32):
        with pytest.raises(ValueError):
            ThorupZwickOracle(hypercube32, k=0)


#: workload -> (n, k, sha256 of the float64 answers on _digest_pairs),
#: recorded with the scalar walk over per-node bunch dicts that the CSR
#: arrays and the batched walk replaced.
ANSWERS = {
    "hypercube": (64, 2, "230cf3e97e8ee5d8b93c46a2f5ee4b0da6da60f29a2320a3b807d18654acf237"),
    "knn-graph": (48, 3, "b44e97db570b00134c4d30552081c4e1e0dfc31ab21db2b11be42cc3f649e356"),
    "expline": (32, 1, "546aaf50071f72f46aa53b163ff20daee4f49ef0f2099b589d25a08fafd19af0"),
}


def _digest_pairs(n):
    """500 seeded pairs, diagonal pairs, then the first 40 pairs again."""
    pairs = np.random.default_rng(2030).integers(0, n, size=(500, 2))
    diagonal = np.stack([np.arange(0, n, 5)] * 2, axis=1)
    return np.concatenate([pairs, diagonal, pairs[:40]])


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_answers_are_pinned(name):
    n, k, golden = ANSWERS[name]
    oracle = api.build("tz-oracle", name, n=n, seed=0, config={"k": k},
                       cache=api.BuildCache()).inner
    pairs = _digest_pairs(n)
    answers = oracle.estimate_many(pairs[:, 0], pairs[:, 1])
    assert hashlib.sha256(answers.astype(np.float64).tobytes()).hexdigest() == golden
    for (u, v), answer in zip(pairs[::25].tolist(), answers[::25]):
        assert oracle.estimate(u, v) == answer
