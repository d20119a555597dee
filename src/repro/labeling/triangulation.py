"""Theorem 3.2 — a (0,δ)-triangulation of order ``(1/δ)^O(α) log n``.

The label of node u consists of distances to its *neighbors*: the
X_i-neighbors (representatives of (2^-i, µ)-packings reachable within
``r_{u,i-1}``) and the Y_i-neighbors (net points at the δ·r_ui/4 scale
inside ``B_u(12 r_ui / δ)``), for ``i ∈ [log n]``.

The theorem guarantees that **every** node pair (u, v) has a common
neighbor within distance δ·d_uv of u or v, so the triangle-inequality
bounds

    D+ = min_b (d_ub + d_vb)        D- = max_b |d_ub - d_vb|

over common neighbors b satisfy ``D+/D- <= (1+2δ)/(1-2δ)`` for *all*
pairs — a (0, O(δ))-triangulation, unlike the common-beacon baseline's
(ε, δ).

:class:`TriangulationDLS` turns the triangulation into the distance
labeling scheme matching Mendel & Har-Peled [44]: store each neighbor as a
``(ID, quantized distance)`` pair and return D+.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair, as_node_pairs
from repro.bits import SizeAccount, bits_for_count
from repro.core.packed import pack_csr
from repro.core.patch import (
    CSRPatch,
    PatchStats,
    ivl_violations,
    patch_stats,
    require_active,
)
from repro.labeling._dplus import PackedLabels
from repro.labeling._scales import ScaleStructure
from repro.labeling.encoding import DistanceCodec
from repro.metrics.base import MetricSpace
from repro.serve.container import ContainerError, check_csr


def _check_labels(n: int, arrays: Dict[str, np.ndarray]) -> None:
    """Reject persisted CSR labels that would read wrong, with
    :class:`~repro.serve.container.ContainerError` naming the check.

    The CSR half is :func:`~repro.serve.container.check_csr`: ``n`` rows
    of ``label_ids`` over ``[0, n)``.  Every distance block
    (``label_dist`` and, for the DLS, ``label_dist_quantized``) has one
    finite, non-negative entry per id.  O(n + L) for L label entries.
    """
    what = "triangulation labels"
    check_csr(what, arrays, ("label_indptr", "label_ids"), ("n", n), n)
    ids = np.asarray(arrays["label_ids"])
    for key in ("label_dist", "label_dist_quantized"):
        if key not in arrays:
            continue
        dist = np.asarray(arrays[key])
        if dist.shape != ids.shape:
            raise ContainerError(
                f"malformed {what}: {key} must have one entry per label id "
                f"({dist.shape} != {ids.shape})"
            )
        if dist.dtype.kind not in "fiu" or not np.all(np.isfinite(dist) & (dist >= 0)):
            raise ContainerError(f"malformed {what}: {key} must be finite and >= 0")


class RingTriangulation:
    """The Theorem 3.2 construction.

    Parameters
    ----------
    metric:
        A finite (preferably doubling) metric.
    delta:
        The paper's δ ∈ (0, 1/2).
    scales:
        Optional pre-built :class:`ScaleStructure` (shared with other
        constructions over the same metric/δ).
    """

    def __init__(
        self,
        metric: MetricSpace,
        delta: float,
        scales: Optional[ScaleStructure] = None,
    ) -> None:
        if not 0 < delta < 0.5:
            raise ValueError(f"Theorem 3.2 needs delta in (0, 1/2), got {delta}")
        self.metric = metric
        self.delta = delta
        self.scales = scales if scales is not None else ScaleStructure(metric, delta)
        # Labels live in CSR arrays: per-node sorted beacon ids + true
        # distances (quantization is applied by TriangulationDLS; the raw
        # triangulation keeps exact distances, as in the paper's
        # definition of a triangulation label).
        chunks_ids: list[np.ndarray] = []
        chunks_dist: list[np.ndarray] = []
        for u in range(metric.n):
            ids = self.scales.all_neighbors(u)
            chunks_ids.append(ids)
            chunks_dist.append(np.asarray(metric.distances_from(u), dtype=float)[ids])
        indptr, ids = pack_csr(chunks_ids, dtype=np.int64)
        _, dist = pack_csr(chunks_dist, dtype=float)
        self._init_labels(indptr, ids, dist)

    def _init_labels(
        self, indptr: np.ndarray, ids: np.ndarray, dist: np.ndarray
    ) -> None:
        # The pristine label block is kept as built; churn goes through a
        # patch over it, created by the first update.
        self._pristine = (indptr, ids, dist)
        self._packed: Optional[PackedLabels] = None
        self._patch: Optional[CSRPatch] = None
        self.revision = 0
        self.ivl_checks = 0
        self.ivl_violations = 0

    # -- CSR access --------------------------------------------------------

    def _merged_labels(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, ids, dist)`` as of the last merge: the pristine
        block until then, after it the patch's merged block (filtered
        from the pristine one on its first read)."""
        patch = self._patch
        if patch is None:
            return self._pristine
        return patch.merged_indptr, patch.merged_keys, patch.merged_payloads[0]

    @property
    def _indptr(self) -> np.ndarray:
        return self._merged_labels()[0]

    @property
    def _ids(self) -> np.ndarray:
        return self._merged_labels()[1]

    @property
    def _dist(self) -> np.ndarray:
        return self._merged_labels()[2]

    def _label_arrays(self, u: NodeId) -> Tuple[np.ndarray, np.ndarray]:
        patch = self._patch
        if patch is not None and patch.row_dirty(u):
            ids, (dist,) = patch.filtered_row(u)
            return ids, dist
        indptr, ids, dist = self._merged_labels()
        lo, hi = indptr[u], indptr[u + 1]
        return ids[lo:hi], dist[lo:hi]

    def _require_active(self, u: NodeId, v: NodeId) -> None:
        """Refuse a read naming a departed node (:class:`InactiveNode`)."""
        if self._patch is not None:
            require_active(self._patch.membership, u, v)

    # -- incremental updates ----------------------------------------------

    def _ensure_patch(self) -> CSRPatch:
        if self._patch is None:
            indptr, ids, dist = self._pristine
            self._patch = CSRPatch(
                indptr, ids, payloads=(dist,), universe=self.metric.n,
            )
        return self._patch

    def apply_update(self, joins=(), leaves=()) -> bool:
        """Apply one join/leave batch to the label structure.

        Labels stay pristine.  Batched reads mask them by the live active
        set, and scalar reads filter the rows that pending churn touches
        the same way.  When the merge policy
        (:func:`~repro.core.patch.merge_due`) trips, the merge commits the
        membership and copies nothing: the merged block that clean scalar
        reads, :attr:`order` and :meth:`to_arrays` consult is filtered
        from the pristine one on its first such read.  Returns whether
        this update triggered an automatic merge.
        """
        patch = self._ensure_patch()
        patch.apply(joins, leaves)
        self.revision += 1
        return patch.maybe_merge()

    def compact(self) -> PatchStats:
        """Force-merge pending churn (the merged block follows on its
        first read)."""
        patch = self._ensure_patch()
        patch.merge()
        return patch.stats()

    def pending_patch_stats(self) -> PatchStats:
        if self._patch is None:
            return patch_stats(None, self.metric.n, self.metric.n)
        return self._patch.stats()

    def _ivl_check(self, u: NodeId, v: NodeId, served: float) -> None:
        """IVL-style bound for a read overlapping a pending patch.

        ``pre`` is D+ over the last-merged arrays, ``post`` D+ over the
        pristine arrays intersected *before* masking by the active set —
        a deliberately different code path from the serving ones (the
        masked dense block for batched reads, mask-then-intersect for
        scalar ones).  The served value must land in the hull of ``pre``
        and ``post`` (:func:`~repro.core.patch.ivl_violations`); for
        pairs the pending churn does not actually affect, pre == post and
        the check becomes a bit-level cross-validation of the paths.
        """
        patch = self._patch
        ids_u, (dist_u,) = patch.merged_row(u)
        ids_v, (dist_v,) = patch.merged_row(v)
        _, iu, iv = np.intersect1d(
            ids_u, ids_v, assume_unique=True, return_indices=True
        )
        pre = float((dist_u[iu] + dist_v[iv]).min()) if iu.size else float("inf")
        plo_u, phi_u = patch.pristine_indptr[u], patch.pristine_indptr[u + 1]
        plo_v, phi_v = patch.pristine_indptr[v], patch.pristine_indptr[v + 1]
        common, ju, jv = np.intersect1d(
            patch.pristine_keys[plo_u:phi_u], patch.pristine_keys[plo_v:phi_v],
            assume_unique=True, return_indices=True,
        )
        keep = patch.membership.active[common] if common.size else common.astype(bool)
        if np.any(keep):
            dsum = (
                patch.pristine_payloads[0][plo_u:phi_u][ju][keep]
                + patch.pristine_payloads[0][plo_v:phi_v][jv][keep]
            )
            post = float(dsum.min())
        else:
            post = float("inf")
        self.ivl_checks += 1
        self.ivl_violations += ivl_violations(served, pre, post)

    # -- structure metrics -------------------------------------------------

    @property
    def order(self) -> int:
        """Triangulation order: the max number of beacons per node."""
        return int(np.diff(self._indptr).max())

    def mean_order(self) -> float:
        return float(np.diff(self._indptr).mean())

    def beacons_of(self, u: NodeId) -> Dict[NodeId, float]:
        """u's beacon set S_u with exact distances (a materialized view;
        the packed arrays are the storage)."""
        u, _ = as_node_pair(u, u, self.metric.n)
        self._require_active(u, u)
        ids, dist = self._label_arrays(u)
        return {int(b): float(d) for b, d in zip(ids, dist)}

    # -- estimation ----------------------------------------------------------

    def common_beacons(self, u: NodeId, v: NodeId) -> list[NodeId]:
        """``S_u ∩ S_v`` (the b's both labels know), ascending."""
        u, v = as_node_pair(u, v, self.metric.n)
        self._require_active(u, v)
        ids_u, _ = self._label_arrays(u)
        ids_v, _ = self._label_arrays(v)
        return [int(b) for b in np.intersect1d(ids_u, ids_v, assume_unique=True)]

    def _common_distances(
        self, u: NodeId, v: NodeId
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(d_ub, d_vb) arrays over the common beacons b."""
        ids_u, dist_u = self._label_arrays(u)
        ids_v, dist_v = self._label_arrays(v)
        _, iu, iv = np.intersect1d(
            ids_u, ids_v, assume_unique=True, return_indices=True
        )
        return dist_u[iu], dist_v[iv]

    def bounds(self, u: NodeId, v: NodeId) -> Tuple[float, float]:
        """(D-, D+) over common beacons; (0, inf) when none exist."""
        u, v = as_node_pair(u, v, self.metric.n)
        self._require_active(u, v)
        du, dv = self._common_distances(u, v)
        if du.size == 0:
            return 0.0, float("inf")
        return float(np.abs(du - dv).max()), float((du + dv).min())

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """Distance estimate D+ (exact-distance labels)."""
        u, v = as_node_pair(u, v, self.metric.n)
        self._require_active(u, v)
        if u == v:
            return 0.0
        served = self.bounds(u, v)[1]
        patch = self._patch
        if patch is not None and (patch.row_dirty(u) or patch.row_dirty(v)):
            self._ivl_check(u, v, served)
        return served

    def _packed_labels(self) -> PackedLabels:
        """The pristine CSR label arrays as :class:`PackedLabels` (built
        on first use).  Merges never touch the pristine arrays, so it
        never goes stale; reads mask it by the live active set."""
        if self._packed is None:
            self._packed = PackedLabels(self.metric.n, *self._pristine)
        return self._packed

    def estimate_many(self, us, vs) -> np.ndarray:
        """Batched D+ over the packed labels (0 on the diagonal).

        Every pair is served from the pristine label block masked by the
        live active set — exactly what the next merge would serve, dirty
        rows included.  A pair touching a row that pending churn made
        dirty is still checked against its IVL hull
        (:meth:`_ivl_check`).
        """
        us, vs = as_node_pairs(us, vs, self.metric.n)
        patch = self._patch
        if patch is None:
            return self._packed_labels().dplus_many(us, vs)
        membership = patch.membership
        require_active(membership, us, vs)
        out = self._packed_labels().dplus_many(
            us, vs, np.flatnonzero(~membership.active)
        )
        if not patch.is_clean():
            dirty = (patch.rows_dirty(us) | patch.rows_dirty(vs)) & (us != vs)
            for i in np.flatnonzero(dirty):
                self._ivl_check(int(us[i]), int(vs[i]), float(out[i]))
        return out

    def to_arrays(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """(meta, arrays) inventory for the on-disk container.

        The CSR label arrays *are* the queryable structure; the
        construction-time :class:`ScaleStructure` is scaffolding and is
        not persisted.  Pending churn is written as the next merge would
        fold it (:meth:`CSRPatch.live_arrays`), so a loaded copy answers
        like the live structure.
        """
        meta: Dict[str, object] = {"delta": self.delta, "n": int(self.metric.n)}
        patch = self._patch
        if patch is not None and not patch.is_clean():
            indptr, ids, (dist,) = patch.live_arrays()
        else:
            indptr, ids, dist = self._merged_labels()
        arrays = {"label_indptr": indptr, "label_ids": ids, "label_dist": dist}
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        metric: MetricSpace,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "RingTriangulation":
        """Rehydrate from :meth:`to_arrays` — zero copy, no net rebuild.

        The result is *detached*: estimation works bit-for-bit off the
        CSR arrays, but ``scales`` is ``None`` (construction internals
        were scaffolding, not part of the queryable structure).  The
        arrays are checked first (:func:`_check_labels`).
        """
        _check_labels(metric.n, arrays)
        tri = cls.__new__(cls)
        tri.metric = metric
        tri.delta = float(meta["delta"])
        tri.scales = None
        tri._init_labels(
            np.asarray(arrays["label_indptr"]),
            np.asarray(arrays["label_ids"]),
            np.asarray(arrays["label_dist"]),
        )
        return tri

    def certified_ratio_bound(self) -> float:
        """The guaranteed worst-pair D+/D- ratio: (1+2δ)/(1-2δ)."""
        return (1 + 2 * self.delta) / (1 - 2 * self.delta)

    def has_close_common_beacon(self, u: NodeId, v: NodeId) -> bool:
        """Theorem 3.2's core guarantee for one pair: a common beacon
        within δ·d_uv of u or of v."""
        d = self.metric.distance(u, v)
        common = np.asarray(self.common_beacons(u, v), dtype=np.int64)
        if common.size == 0:
            return False
        row_u = np.asarray(self.metric.distances_from(u), dtype=float)
        row_v = np.asarray(self.metric.distances_from(v), dtype=float)
        limit = self.delta * d + 1e-12 * max(1.0, d)
        return bool(np.minimum(row_u[common], row_v[common]).min() <= limit)

    def worst_ratio(self) -> float:
        """Measured max of D+/D- over all pairs of active nodes."""
        patch = self._patch
        nodes = range(self.metric.n)
        if patch is not None:
            nodes = patch.membership.active_ids().tolist()
        worst = 1.0
        for u, v in combinations(nodes, 2):
            lower, upper = self.bounds(u, v)
            if lower <= 0:
                return float("inf")
            worst = max(worst, upper / lower)
        return worst


class TriangulationDLS:
    """Theorem 3.2's corollary DLS (the Mendel–Har-Peled [44] bound).

    Each neighbor is stored as ``(ceil(log n)-bit ID, quantized
    distance)``; the estimate is the quantized D+.  Label length is
    ``O_{α,δ}(log n)(log n + log log Δ)`` bits.
    """

    def __init__(
        self,
        triangulation: RingTriangulation,
        mantissa_bits: Optional[int] = None,
    ) -> None:
        self.triangulation = triangulation
        metric = triangulation.metric
        if mantissa_bits is None:
            # O(log 1/δ)-bit mantissa: relative error 2^(1-b) <= δ/4.
            mantissa_bits = max(4, int(np.ceil(np.log2(8.0 / triangulation.delta))))
        self.codec = DistanceCodec.for_metric(metric, mantissa_bits)
        # Quantize the triangulation's whole CSR distance block in one
        # vectorized pass; the id/offset arrays are shared, not copied.
        self._indptr = triangulation._indptr
        self._ids = triangulation._ids
        self._dist = self.codec.roundtrip_many(triangulation._dist)
        self._packed: Optional[PackedLabels] = None

    def label(self, u: NodeId) -> Dict[NodeId, float]:
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return {
            int(b): float(d)
            for b, d in zip(self._ids[lo:hi], self._dist[lo:hi])
        }

    def label_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        n = self.triangulation.metric.n
        k = int(self._indptr[u + 1] - self._indptr[u])
        account.add("neighbor_ids", k * bits_for_count(n))
        account.add("neighbor_distances", k * self.codec.bits_per_distance)
        return account

    def max_label_bits(self) -> int:
        n = self.triangulation.metric.n
        per_beacon = bits_for_count(n) + self.codec.bits_per_distance
        return int(np.diff(self._indptr).max()) * per_beacon

    def to_arrays(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """(meta, arrays) inventory: shared CSR ids plus *both* distance
        blocks (raw for the carrier triangulation, quantized for the DLS
        itself), and the codec's three defining parameters."""
        meta: Dict[str, object] = {
            "delta": self.triangulation.delta,
            "n": int(self.triangulation.metric.n),
            "codec": {
                "min_distance": self.codec.min_distance,
                "max_distance": self.codec.max_distance,
                "mantissa_bits": self.codec.mantissa_bits,
            },
        }
        arrays = {
            "label_indptr": self._indptr,
            "label_ids": self._ids,
            "label_dist": self.triangulation._dist,
            "label_dist_quantized": self._dist,
        }
        return meta, arrays

    @classmethod
    def from_arrays(
        cls,
        metric: MetricSpace,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "TriangulationDLS":
        """Rehydrate from :meth:`to_arrays` without re-quantizing."""
        codec_meta = meta["codec"]
        dls = cls.__new__(cls)
        dls.triangulation = RingTriangulation.from_arrays(metric, meta, arrays)
        dls.codec = DistanceCodec(
            float(codec_meta["min_distance"]),
            float(codec_meta["max_distance"]),
            int(codec_meta["mantissa_bits"]),
        )
        dls._indptr = dls.triangulation._indptr
        dls._ids = dls.triangulation._ids
        dls._dist = np.asarray(arrays["label_dist_quantized"])
        dls._packed = None
        return dls

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """D+ over common stored beacons (labels only)."""
        u, v = as_node_pair(u, v, self.triangulation.metric.n)
        if u == v:
            return 0.0
        lo_u, hi_u = self._indptr[u], self._indptr[u + 1]
        lo_v, hi_v = self._indptr[v], self._indptr[v + 1]
        _, iu, iv = np.intersect1d(
            self._ids[lo_u:hi_u], self._ids[lo_v:hi_v],
            assume_unique=True, return_indices=True,
        )
        if iu.size == 0:
            return float("inf")
        return float((self._dist[lo_u:hi_u][iu] + self._dist[lo_v:hi_v][iv]).min())

    def estimate_many(self, us, vs) -> np.ndarray:
        """Batched quantized D+ (same packed-label path as Theorem 3.2)."""
        n = self.triangulation.metric.n
        us, vs = as_node_pairs(us, vs, n)
        if self._packed is None:
            self._packed = PackedLabels(n, self._indptr, self._ids, self._dist)
        return self._packed.dplus_many(us, vs)
