"""Common-beacon-set (ε,δ)-triangulation — the [33, 50] baseline.

"Triangulation of order k is a labeling of the nodes such that a label of
a given node u consists of distances from u to each node in a beacon set
S_u of at most k other nodes" (§1).  The earlier distributed constructions
[33, 50] give *all nodes the same beacon set*, which yields an
(ε,δ)-triangulation: the quality guarantee fails for an ε-fraction of node
pairs.  Theorem 3.2's whole point is removing that ε; this module exists
as the baseline the benchmarks compare against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair, as_node_pairs
from repro.bits import SizeAccount, bits_for_count
from repro.core.patch import Membership, PatchStats, patch_stats, require_active
from repro.labeling.encoding import DistanceCodec
from repro.metrics.base import MetricSpace
from repro.rng import SeedLike, ensure_rng
from repro.serve.container import ContainerError


def _check_arrays(n: int, arrays: dict) -> None:
    """Refuse persisted beacons that would answer wrong, with a
    :class:`~repro.serve.container.ContainerError` naming the check:
    ``beacons`` is a 1-D integer array of distinct ids in [0, n), and
    ``labels`` a float array of shape (n, len(beacons)), finite and >= 0.
    O(n·k), run on every load a server makes."""

    def fail(check: str) -> None:
        raise ContainerError(f"malformed beacons arrays: {check}")

    beacons = np.asarray(arrays["beacons"])
    if beacons.dtype.kind not in "iu" or beacons.ndim != 1:
        fail("beacons must be a one-dimensional integer array")
    if beacons.size and (beacons.min() < 0 or beacons.max() >= n):
        fail(f"beacons must lie in [0, {n})")
    if np.unique(beacons).size != beacons.size:
        fail("beacons must be distinct")
    labels = np.asarray(arrays["labels"])
    if labels.dtype.kind != "f" or labels.shape != (n, beacons.size):
        fail(f"labels must be a float array of shape (n, len(beacons)) = "
             f"{(n, beacons.size)} (has {labels.dtype} {labels.shape})")
    # Two reductions, no temporaries: a NaN or -inf fails ``min >= 0``.
    if labels.size and not (labels.min() >= 0 and np.isfinite(labels.max())):
        fail("labels must be finite and >= 0")


class BeaconTriangulation:
    """Triangulation where every node's beacon set is the same k nodes.

    Estimates for a pair (u, v):

    * upper bound  D+ = min_b (d_ub + d_vb)
    * lower bound  D- = max_b |d_ub - d_vb|

    Both are exact consequences of the triangle inequality; D+/D- <= 1+δ
    holds for "most" pairs only, and :meth:`epsilon_for_delta` measures the
    failing fraction ε empirically.
    """

    def __init__(
        self,
        metric: MetricSpace,
        k: int,
        beacons: Optional[Sequence[NodeId]] = None,
        seed: SeedLike = None,
        mantissa_bits: int = 12,
    ) -> None:
        if k < 1:
            raise ValueError("need at least one beacon")
        self.metric = metric
        if beacons is None:
            rng = ensure_rng(seed)
            beacons = rng.choice(metric.n, size=min(k, metric.n), replace=False)
        self.beacons = np.asarray(sorted(int(b) for b in beacons), dtype=int)
        self.codec = DistanceCodec.for_metric(metric, mantissa_bits)
        # labels[u, j] = stored (quantized) distance from u to beacon j —
        # one batched distance block, quantized in one pass.  Computed in
        # the (k, n) orientation and transposed: distances are symmetric,
        # and row-on-demand backends (the lazy graph metric) then pay k
        # row computations instead of n.  Stored C-contiguous, as the
        # container stores it, so a batched read gathers whole rows.
        self._labels = np.ascontiguousarray(self.codec.roundtrip_many(
            metric.distances_between(self.beacons, np.arange(metric.n)).T
        ))
        self._init_mutation_state()

    def _init_mutation_state(self) -> None:
        # Pristine copies: churn drops beacon *columns*, never recomputes
        # distances.  ``self.beacons``/``self._labels`` always hold the
        # live state, which every read serves.
        self._beacons0 = self.beacons
        self._labels0 = self._labels
        self._membership: Optional[Membership] = None
        self.revision = 0

    # -- incremental updates -------------------------------------------

    def apply_update(self, joins=(), leaves=()) -> bool:
        """Apply one join/leave batch and commit it: nothing is pending
        when it returns.  Label distances stay pristine.  Only a batch
        that changes a beacon's membership replaces the served
        ``beacons``/``labels`` by the pristine ones without the inactive
        beacons' columns; any other batch is membership bookkeeping
        alone.  Returns True: every update merges."""
        if self._membership is None:
            self._membership = Membership(self.metric.n)
        m = self._membership
        m.apply(joins, leaves)
        self.revision += 1
        b0 = self._beacons0
        mask = m.active[b0]
        if (mask != m.snapshot[b0]).any():
            self.beacons, self._labels = b0[mask], self._labels0[:, mask]
        m.commit()
        return True

    def compact(self) -> PatchStats:
        """Nothing to fold: every update committed already."""
        return self.pending_patch_stats()

    def pending_patch_stats(self) -> PatchStats:
        """Beacon columns are the rows; nothing is pending, and each
        update was one merge."""
        m = self._membership
        return patch_stats(m, self.metric.n, int(self._beacons0.size),
                           auto_merges=0 if m is None else m.updates)

    @property
    def order(self) -> int:
        """The triangulation order (beacons per node)."""
        return len(self.beacons)

    def to_arrays(self) -> Tuple[dict, dict]:
        """(meta, arrays) inventory for the on-disk container: the live
        beacons and labels, so a loaded copy answers like the live
        structure."""
        meta = {
            "n": int(self.metric.n),
            "codec": {
                "min_distance": self.codec.min_distance,
                "max_distance": self.codec.max_distance,
                "mantissa_bits": self.codec.mantissa_bits,
            },
        }
        return meta, {"beacons": self.beacons, "labels": self._labels}

    @classmethod
    def from_arrays(
        cls, metric: MetricSpace, meta: dict, arrays: dict
    ) -> "BeaconTriangulation":
        """Rehydrate from :meth:`to_arrays` — the quantized (n, k) label
        matrix is used as-is, no distance recomputation, once
        :func:`_check_arrays` has passed it."""
        _check_arrays(int(meta["n"]), arrays)
        codec_meta = meta["codec"]
        tri = cls.__new__(cls)
        tri.metric = metric
        tri.beacons = np.asarray(arrays["beacons"])
        tri.codec = DistanceCodec(
            float(codec_meta["min_distance"]),
            float(codec_meta["max_distance"]),
            int(codec_meta["mantissa_bits"]),
        )
        tri._labels = np.asarray(arrays["labels"])
        tri._init_mutation_state()
        return tri

    def label(self, u: NodeId) -> np.ndarray:
        """Stored beacon distances of u."""
        return self._labels[u]

    def label_bits(self, u: NodeId) -> SizeAccount:
        account = SizeAccount()
        account.add("beacon_ids", self.order * bits_for_count(self.metric.n))
        account.add("beacon_distances", self.order * self.codec.bits_per_distance)
        return account

    def bounds(self, u: NodeId, v: NodeId) -> Tuple[float, float]:
        """(D-, D+) for the pair, from labels only."""
        u, v = as_node_pair(u, v, self.metric.n)
        require_active(self._membership, u, v)
        lu, lv = self._labels[u], self._labels[v]
        if lu.size == 0:
            return 0.0, float("inf")
        return float(np.max(np.abs(lu - lv))), float(np.min(lu + lv))

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """The distance estimate (the upper bound D+, as in the paper)."""
        u, v = as_node_pair(u, v, self.metric.n)
        require_active(self._membership, u, v)
        if u == v:
            return 0.0
        return self.bounds(u, v)[1]

    def _read_many(
        self, us, vs, with_lower: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
        """One validated batched read: ``(us, vs, D-, D+)`` over the live
        labels, D- only ``with_lower`` (else None).  D+ is a gather, an
        in-place add and a row min."""
        us, vs = as_node_pairs(us, vs, self.metric.n)
        require_active(self._membership, us, vs)
        labels = self._labels
        if labels.shape[1] == 0:
            lower, upper = np.zeros(us.shape), np.full(us.shape, np.inf)
        else:
            lu, lv = labels[us], labels[vs]
            lower = np.abs(lu - lv).max(axis=1) if with_lower else None
            lu += lv
            upper = lu.min(axis=1)
        return us, vs, lower, upper

    def bounds_many(self, us, vs) -> Tuple[np.ndarray, np.ndarray]:
        """Batched (D-, D+) for aligned source/target index arrays."""
        _, _, lower, upper = self._read_many(us, vs, with_lower=True)
        return lower, upper

    def estimate_many(self, us, vs) -> np.ndarray:
        """Batched D+ estimates (0 on the diagonal); D- is not computed."""
        us, vs, _, upper = self._read_many(us, vs, with_lower=False)
        upper[us == vs] = 0.0
        return upper

    def _iter_pair_bounds(self):
        """Yield (D-, D+) blocks covering every unordered pair u < v of
        active nodes, read from the live labels, so a departed beacon
        does not count.

        One source node per block (vectorized over its later partners),
        so peak memory stays O(n·k) even at n = 10⁴⁺.
        """
        labels = self._labels
        if self._membership is not None:
            labels = labels[self._membership.active]
        for u in range(labels.shape[0] - 1):
            lu = labels[u]
            lv = labels[u + 1 :]
            if lu.size == 0:
                yield np.zeros(lv.shape[0]), np.full(lv.shape[0], np.inf)
                continue
            yield np.abs(lv - lu).max(axis=1), (lv + lu).min(axis=1)

    def epsilon_for_delta(self, delta: float) -> float:
        """Fraction of pairs with D+/D- > 1 + delta (the ε in (ε,δ))."""
        failing = 0
        total = 0
        for lower, upper in self._iter_pair_bounds():
            total += lower.size
            failing += int(np.count_nonzero((lower <= 0) | (upper > (1 + delta) * lower)))
        return failing / max(1, total)

    def worst_ratio(self) -> float:
        """Max over pairs of D+/D- (inf when some D- is 0)."""
        worst = 1.0
        for lower, upper in self._iter_pair_bounds():
            if np.any(lower <= 0):
                return float("inf")
            worst = max(worst, float((upper / lower).max()))
        return worst
