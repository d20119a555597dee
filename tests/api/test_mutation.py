"""The MutableScheme extension of the api surface.

Covers the update facade (`api.update` / `api.supports_update`), the
UpdateReceipt value object, the scheme classes' `supports_update` flag,
the typed UnsupportedUpdate error for static schemes, and the BuildCache
staleness regression: a cached workload instance whose revision moved
(because a scheme built on it was mutated) must never be served again.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.api.mutation import MutableScheme, UnsupportedUpdate, UpdateReceipt

MUTABLE = ("triangulation", "beacons", "route-thm2.1")


@pytest.fixture()
def tri():
    api.clear_cache()
    return api.build("triangulation", workload="hypercube", n=40, seed=0)


class TestSupportsUpdate:
    def test_by_name_and_instance(self, tri):
        for name in MUTABLE:
            assert api.supports_update(name)
        assert not api.supports_update("labels")
        assert not api.supports_update("tz-oracle")
        assert api.supports_update(tri)
        assert isinstance(tri, MutableScheme)

    def test_scheme_class_flag(self):
        for name, entry in api.SCHEMES.items():
            expected = name in MUTABLE
            assert entry.obj.supports_update is expected, name
            assert "supports_update" not in entry.meta, name

    def test_describe_tags_mutable_schemes(self):
        text = api.describe()
        tagged = [
            line for line in text.splitlines() if "[+update]" in line
        ]
        assert len(tagged) == len(MUTABLE)

    def test_unknown_scheme_name_raises(self):
        with pytest.raises(KeyError):
            api.supports_update("definitely-not-a-scheme")


class TestUpdateFacade:
    def test_update_returns_receipt(self, tri):
        receipt = api.update(tri, leaves=[3, 7])
        assert isinstance(receipt, UpdateReceipt)
        assert receipt.scheme == "triangulation"
        assert receipt.leaves == (3, 7)
        assert receipt.joins == ()
        assert receipt.revision == 1
        assert receipt.active_nodes == 38
        assert receipt.update_s >= 0.0

    def test_receipt_names_ids_given_as_generators(self, tri):
        receipt = api.update(tri, leaves=(x for x in [7, 9]))
        assert receipt.leaves == (7, 9)
        assert receipt.active_nodes == 38
        receipt = api.update(tri, joins=(x for x in [9]), leaves=iter([3]))
        assert (receipt.joins, receipt.leaves) == ((9,), (3,))
        assert receipt.active_nodes == 38

    def test_receipt_json_roundtrip(self, tri):
        receipt = api.update(tri, leaves=[1])
        data = json.loads(json.dumps(receipt.to_dict()))
        again = UpdateReceipt.from_dict(data)
        assert again == receipt

    def test_static_scheme_raises_typed_error(self):
        api.clear_cache()
        labels = api.build("labels", workload="hypercube", n=24, seed=0)
        with pytest.raises(UnsupportedUpdate) as err:
            api.update(labels, leaves=[0])
        # the error is typed (not AttributeError) and names the schemes
        # that do support updates
        assert not isinstance(err.value, AttributeError)
        assert isinstance(err.value, TypeError)
        for name in MUTABLE:
            assert name in str(err.value)
        with pytest.raises(UnsupportedUpdate):
            labels.update(leaves=[0])
        with pytest.raises(UnsupportedUpdate):
            labels.compact()

    def test_metric_overlay_routing_unsupported(self):
        # route-thm2.1 on a *metric* workload routes over a §4.1 overlay,
        # which has no incremental path: typed error, not a crash.
        api.clear_cache()
        fitted = api.build("route-thm2.1", workload="hypercube", n=24, seed=0)
        with pytest.raises(UnsupportedUpdate):
            fitted.update(leaves=[1])

    def test_compact_returns_stats(self, tri):
        api.update(tri, leaves=[5])
        stats = tri.compact()
        assert stats.pending_leaves == 0
        assert tri.pending_patch_stats().dirty_rows == 0


class TestBuildCacheStaleness:
    def test_mutation_evicts_cached_workload(self):
        api.clear_cache()
        before = api.cache_info()["invalidations"]
        tri = api.build("triangulation", workload="hypercube", n=32, seed=0)
        api.update(tri, leaves=[2])
        assert tri.workload.revision == 1
        again = api.build("triangulation", workload="hypercube", n=32, seed=0)
        # the rebuilt scheme must come from a fresh (pristine) workload
        # instance, not the mutated cached one
        assert again.workload is not tri.workload
        assert again.workload.revision == 0
        assert api.cache_info()["invalidations"] == before + 1
        # and the fresh instance serves the full universe again
        assert again.inner.estimate(2, 5) >= 0.0

    def test_compact_also_bumps_revision(self):
        api.clear_cache()
        tri = api.build("triangulation", workload="hypercube", n=32, seed=0)
        api.update(tri, leaves=[4])
        rev = tri.workload.revision
        tri.compact()
        assert tri.workload.revision > rev

    def test_clean_cache_still_hits(self):
        api.clear_cache()
        a = api.build("triangulation", workload="hypercube", n=32, seed=0)
        b = api.build("beacons", workload="hypercube", n=32, seed=0)
        assert a.workload is b.workload  # untouched instance is shared
