"""Save → load round-trips: every persisted scheme answers bit-for-bit."""

import numpy as np
import pytest

from repro import api
from repro.core import patch as patch_policy
from repro.distributed.trace import ChurnTrace
from repro.serve import (
    DetachedStructureError,
    PERSISTABLE_SCHEMES,
    UnsupportedSchemeError,
    load_structure,
    save_structure,
)
from repro.serve.container import ContainerError

ESTIMATORS = ["triangulation", "beacons", "labels", "labels-tri", "tz-oracle"]
ROUTERS = ["route-trivial", "route-thm2.1"]


def _build(scheme, workload, n, **params):
    return api.build(scheme, workload=workload, n=n, seed=5, **params)


def _estimates(fitted, pairs):
    inner = fitted.inner
    if hasattr(inner, "estimate_many"):
        return np.asarray(inner.estimate_many(pairs[:, 0], pairs[:, 1]))
    return np.asarray([inner.estimate(int(u), int(v)) for u, v in pairs])


@pytest.mark.parametrize("scheme", ESTIMATORS)
@pytest.mark.parametrize("workload", ["hypercube", "expline"])
class TestEstimatorRoundtrip:
    def test_bit_for_bit_estimates(self, scheme, workload, tmp_path):
        fitted = _build(scheme, workload, 36)
        path = tmp_path / "structure.repro"
        content_hash = save_structure(fitted, path)
        loaded = load_structure(path)
        assert loaded.structure_hash == content_hash
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 36, size=(150, 2))
        original = _estimates(fitted, pairs)
        reloaded = _estimates(loaded, pairs)
        assert np.array_equal(original, reloaded)
        assert loaded.guarantee() == fitted.guarantee()


class TestRoutingRoundtrip:
    @pytest.mark.parametrize("scheme", ROUTERS)
    def test_bit_for_bit_routes(self, scheme, tmp_path):
        fitted = _build(scheme, "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        rng = np.random.default_rng(13)
        for u, v in rng.integers(0, 48, size=(60, 2)):
            original = fitted.inner.route(int(u), int(v))
            again = loaded.inner.route(int(u), int(v))
            assert original.reached == again.reached
            assert list(original.path) == list(again.path)
            assert original.header_bits == again.header_bits

    def test_loaded_scheme_evaluates(self, tmp_path):
        fitted = _build("route-thm2.1", "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        stats = api.evaluate(loaded, "uniform", size=60, seed=2)
        assert stats["delivery_rate"] == 1.0

    def test_size_accounting_survives(self, tmp_path):
        fitted = _build("route-thm2.1", "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        assert (loaded.inner.table_bits(0).total_bits
                == fitted.inner.table_bits(0).total_bits)


class TestRoutingSaveDuringChurn:
    """A route-thm2.1 save during churn writes the live rings and the
    labels padded with -1 after their last level, so the loaded copy
    routes like the structure that was saved."""

    N = 120
    #: content hash of a never-updated build, recorded before labels
    #: were padded: a structure churn never touched saves as it did.
    FRESH_HASH = (
        "sha256:36990d289312fefb239dc7ea2d277d1b1b10fa80109eda1ebc0a1cfff657b98f"
    )

    def _build(self):
        return api.build("route-thm2.1", workload="knn-graph", n=self.N, seed=0,
                         delta=0.3, cache=api.BuildCache())

    def _roundtrip(self, fitted, tmp_path):
        path = tmp_path / "structure.repro"
        api.save(fitted, path)
        return api.load(path)

    def _assert_same_routes(self, fitted, loaded, pairs=400):
        ids = np.flatnonzero(fitted.inner._patch.membership.active)
        rng = np.random.default_rng(17)
        delivered = 0
        for u, v in rng.choice(ids, size=(pairs, 2)).tolist():
            original = fitted.inner.route(u, v)
            again = loaded.inner.route(u, v)
            assert list(again.path) == list(original.path), (u, v)
            assert again.reached == original.reached
            assert again.header_bits == original.header_bits
            delivered += original.reached
        return delivered

    def test_never_updated_structure_keeps_its_hash(self, tmp_path):
        assert save_structure(self._build(), tmp_path / "s.repro") == self.FRESH_HASH

    def test_empty_labels_round_trip(self, tmp_path):
        fitted = self._build()
        api.update(fitted, leaves=[0])  # G_0's only net point
        assert all(not label.indices for label in fitted.inner.labels)
        loaded = self._roundtrip(fitted, tmp_path)
        assert loaded.inner.labels == fitted.inner.labels

    def test_ragged_labels_round_trip(self, tmp_path):
        fitted = self._build()
        trace = ChurnTrace.generate(n=self.N, events=30, rate=0.05, seed=2)
        for event in trace.events:
            api.update(fitted, joins=event.joins, leaves=event.leaves)
            if {len(label.indices) for label in fitted.inner.labels} == {10, 12}:
                break
        else:
            pytest.fail("the trace never cut labels to lengths {10, 12}")
        loaded = self._roundtrip(fitted, tmp_path)
        assert loaded.inner.labels == fitted.inner.labels
        assert self._assert_same_routes(fitted, loaded) > 0

    def test_build_time_k_survives_a_save_during_churn(self, tmp_path):
        fitted = self._build()
        live = fitted.inner
        k = live.max_ring_cardinality()
        row = int(np.diff(live._indptr).argmax())
        largest = live._members[live._indptr[row] : live._indptr[row + 1]]
        api.update(fitted, leaves=largest[-3:].tolist())
        loaded = self._roundtrip(fitted, tmp_path)
        assert loaded.inner.max_ring_cardinality() == k
        for u in range(self.N):
            assert (
                loaded.inner.table_bits(u, dense_translation=True).total_bits
                == live.table_bits(u, dense_translation=True).total_bits
            )
        # a copy saved again from the loaded one keeps it too
        again = tmp_path / "again.repro"
        api.save(loaded, again)
        assert api.load(again).inner.max_ring_cardinality() == k

    def test_pending_patch_saves_live_rings(self, tmp_path, monkeypatch):
        # the merge policy reads these at call time: the patch stays pending
        monkeypatch.setattr(patch_policy, "MERGE_DIRTY_FRACTION", 1.1)
        monkeypatch.setattr(patch_policy, "MERGE_STALENESS", 10**9)
        fitted = self._build()
        api.update(fitted, leaves=[3, 17, 40])
        assert not fitted.inner._patch.is_clean()
        loaded = self._roundtrip(fitted, tmp_path)
        assert loaded.inner.labels == fitted.inner.labels
        assert self._assert_same_routes(fitted, loaded) == 400


class TestDetachedBehavior:
    def test_detached_metric_refuses_distance_queries(self, tmp_path):
        fitted = _build("triangulation", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        with pytest.raises(DetachedStructureError, match="without its metric"):
            loaded.workload.metric.distance(0, 1)

    def test_detached_metric_keeps_extremes(self, tmp_path):
        fitted = _build("labels", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        metric = loaded.workload.metric
        assert metric.diameter() == fitted.workload.metric.diameter()
        assert metric.min_distance() == fitted.workload.metric.min_distance()

    def test_annotations_present(self, tmp_path):
        fitted = _build("beacons", "hypercube", 30)
        path = tmp_path / "structure.repro"
        content_hash = save_structure(fitted, path)
        loaded = load_structure(path)
        assert loaded.structure_hash == content_hash
        assert loaded.structure_path == path
        assert loaded.container.kind == "scheme"


class TestErrorPaths:
    def test_unsupported_scheme_rejected(self, tmp_path):
        fitted = _build("sw-5.2a", "hypercube", 30)
        with pytest.raises(UnsupportedSchemeError, match="sw-5.2a"):
            save_structure(fitted, tmp_path / "nope.repro")

    def test_every_persistable_name_is_registered(self):
        from repro.api import SCHEMES

        for name in PERSISTABLE_SCHEMES:
            assert name in SCHEMES

    def test_truncated_structure_fails_clearly(self, tmp_path):
        fitted = _build("triangulation", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ContainerError):
            load_structure(path)

    def test_corrupt_structure_fails_verification(self, tmp_path):
        fitted = _build("triangulation", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="hash"):
            load_structure(path, verify=True)

    def test_metric_container_is_not_a_scheme(self, tmp_path):
        from repro.metrics import random_hypercube_metric
        from repro.metrics.io import save_metric

        path = tmp_path / "metric.repro"
        save_metric(random_hypercube_metric(12, seed=0), path)
        with pytest.raises(ContainerError, match="metric"):
            load_structure(path)


class TestFacade:
    def test_api_save_load(self, tmp_path):
        fitted = _build("labels-tri", "hypercube", 30)
        path = tmp_path / "structure.repro"
        api.save(fitted, path)
        loaded = api.load(path)
        pairs = np.argwhere(np.ones((30, 30)))[:90]
        assert np.array_equal(_estimates(fitted, pairs), _estimates(loaded, pairs))
