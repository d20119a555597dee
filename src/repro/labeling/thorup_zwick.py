"""Thorup–Zwick approximate distance oracles [53] — the general-metric
baseline of the paper's §1.

"For any integer k there exists a (2k−1)-approximate DLS on weighted
graphs with ~O(n^{1/k} log Δ)-bit labels" — this is the scheme the
doubling-metric results of §3 improve on when the doubling dimension is
small.  We implement the classic construction:

* sampled hierarchy ``A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1}``, each level keeping
  nodes with probability ``n^{-1/k}``;
* *pivots* ``p_i(v)`` — the nearest level-i node to v;
* *bunches* ``B(v) = ∪_i { w ∈ A_i \\ A_{i+1} : d(w,v) < d(A_{i+1}, v) }``;
* the query walks pivots, swapping roles, until a common bunch member is
  found; the returned estimate is a (2k−1)-approximation.

The label of v stores its pivots and its bunch with distances; the bench
compares its label size and accuracy against the doubling-aware schemes
of §3 on doubling and non-doubling inputs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro._types import NodeId, as_node_pair
from repro.bits import SizeAccount, bits_for_count
from repro.labeling.encoding import DistanceCodec
from repro.metrics.base import MetricSpace
from repro.rng import SeedLike, ensure_rng
from repro.serve.container import ContainerError, check_csr


def _check_arrays(n: int, k: int, arrays: dict) -> None:
    """Refuse a persisted oracle that would answer wrong, with a
    :class:`~repro.serve.container.ContainerError` naming the check: the
    bunches are n CSR rows and the levels k CSR rows over ``[0, n)``
    (:func:`~repro.serve.container.check_csr`), ``bunch_dist`` holds one
    finite entry >= 0 per bunch id, ``pivots`` is an (n, k) integer array
    in ``[0, n)`` and ``pivot_dist`` an (n, k) finite array >= 0."""
    what = "tz-oracle arrays"

    def fail(check: str) -> None:
        raise ContainerError(f"malformed {what}: {check}")

    check_csr(what, arrays, ("bunch_indptr", "bunch_ids"), ("n", n), n)
    check_csr(what, arrays, ("level_indptr", "level_ids"), ("k", k), n)
    dist = np.asarray(arrays["bunch_dist"])
    if dist.shape != np.shape(arrays["bunch_ids"]):
        fail("bunch_dist must have one entry per bunch id")
    if dist.dtype.kind not in "fiu" or not np.all(np.isfinite(dist) & (dist >= 0)):
        fail("bunch_dist must be finite and >= 0")
    pivots = np.asarray(arrays["pivots"])
    if pivots.dtype.kind not in "iu" or pivots.shape != (n, k):
        fail(f"pivots must be an integer array of shape (n, k) = {(n, k)} "
             f"(has {pivots.dtype} {pivots.shape})")
    if pivots.size and (pivots.min() < 0 or pivots.max() >= n):
        fail(f"pivots entries must lie in [0, {n})")
    pivot_dist = np.asarray(arrays["pivot_dist"])
    if pivot_dist.dtype.kind != "f" or pivot_dist.shape != (n, k):
        fail(f"pivot_dist must be a float array of shape (n, k) = {(n, k)} "
             f"(has {pivot_dist.dtype} {pivot_dist.shape})")
    if not np.all(np.isfinite(pivot_dist) & (pivot_dist >= 0)):
        fail("pivot_dist entries must be finite and >= 0")


class ThorupZwickOracle:
    """A (2k−1)-approximate distance oracle / labeling scheme."""

    def __init__(
        self,
        metric: MetricSpace,
        k: int = 2,
        seed: SeedLike = None,
        mantissa_bits: int = 10,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.metric = metric
        self.k = k
        self.codec = DistanceCodec.for_metric(metric, mantissa_bits)
        rng = ensure_rng(seed)
        n = metric.n

        # Sampled hierarchy A_0 ⊇ ... ⊇ A_{k-1}; A_k = ∅.
        self.levels: List[np.ndarray] = [np.arange(n)]
        keep_probability = n ** (-1.0 / k) if k > 1 else 0.0
        for _ in range(1, k):
            prev = self.levels[-1]
            mask = rng.random(prev.size) < keep_probability
            current = prev[mask]
            if current.size == 0:
                # Guarantee non-emptiness below the top so pivots exist
                # (standard fix: resample one element).
                current = np.array([int(rng.choice(prev))])
            self.levels.append(current)

        # Pivots p_i(v) and the distances d(A_i, v).
        self._pivots = np.zeros((n, k), dtype=int)
        self._pivot_dist = np.zeros((n, k))
        for v in range(n):
            row = metric.distances_from(v)
            for i, level in enumerate(self.levels):
                idx = int(level[np.argmin(row[level])])
                self._pivots[v, i] = idx
                self._pivot_dist[v, i] = float(row[idx])

        # Bunches.
        self._bunches: List[Dict[NodeId, float]] = []
        level_sets = [set(int(x) for x in level) for level in self.levels]
        for v in range(n):
            row = metric.distances_from(v)
            bunch: Dict[NodeId, float] = {}
            for i in range(k):
                # d(A_{i+1}, v); A_k = ∅ -> +inf.
                next_dist = (
                    self._pivot_dist[v, i + 1] if i + 1 < k else float("inf")
                )
                exclusive = level_sets[i] - (
                    level_sets[i + 1] if i + 1 < k else set()
                )
                for w in exclusive:
                    if float(row[w]) < next_dist:
                        bunch[w] = self.codec.roundtrip(float(row[w]))
            # Pivots are always available to the query algorithm.
            for i in range(k):
                p = int(self._pivots[v, i])
                bunch.setdefault(p, self.codec.roundtrip(float(row[p])))
            self._bunches.append(bunch)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_arrays(self) -> tuple:
        """(meta, arrays) inventory: pivots/pivot distances as dense
        (n, k) blocks, the level hierarchy and the bunches as CSR."""
        n = self.metric.n
        level_indptr = np.zeros(self.k + 1, dtype=np.int64)
        for i, level in enumerate(self.levels):
            level_indptr[i + 1] = level_indptr[i] + level.size
        level_ids = (
            np.concatenate(self.levels).astype(np.int64)
            if self.levels
            else np.empty(0, dtype=np.int64)
        )
        bunch_indptr = np.zeros(n + 1, dtype=np.int64)
        ids_chunks, dist_chunks = [], []
        for v, bunch in enumerate(self._bunches):
            ids = np.fromiter(sorted(bunch), dtype=np.int64, count=len(bunch))
            ids_chunks.append(ids)
            dist_chunks.append(
                np.array([bunch[int(w)] for w in ids], dtype=np.float64)
            )
            bunch_indptr[v + 1] = bunch_indptr[v] + ids.size
        meta = {
            "n": int(n),
            "k": int(self.k),
            "codec": {
                "min_distance": self.codec.min_distance,
                "max_distance": self.codec.max_distance,
                "mantissa_bits": self.codec.mantissa_bits,
            },
        }
        arrays = {
            "level_indptr": level_indptr,
            "level_ids": level_ids,
            "pivots": self._pivots.astype(np.int64),
            "pivot_dist": self._pivot_dist,
            "bunch_indptr": bunch_indptr,
            "bunch_ids": np.concatenate(ids_chunks)
            if ids_chunks
            else np.empty(0, dtype=np.int64),
            "bunch_dist": np.concatenate(dist_chunks)
            if dist_chunks
            else np.empty(0, dtype=np.float64),
        }
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, metric: MetricSpace, meta: dict, arrays: dict
    ) -> "ThorupZwickOracle":
        """Rehydrate from :meth:`to_arrays`, refusing malformed arrays
        (:func:`_check_arrays`).

        Bunches are rebuilt as dicts (the query walk needs membership
        tests); estimates are unaffected by dict order, so the sorted
        CSR layout is bit-for-bit equivalent to the built oracle.
        """
        n = metric.n
        _check_arrays(n, int(meta["k"]), arrays)
        codec_meta = meta["codec"]
        oracle = cls.__new__(cls)
        oracle.metric = metric
        oracle.k = int(meta["k"])
        oracle.codec = DistanceCodec(
            float(codec_meta["min_distance"]),
            float(codec_meta["max_distance"]),
            int(codec_meta["mantissa_bits"]),
        )
        level_indptr = np.asarray(arrays["level_indptr"])
        level_ids = np.asarray(arrays["level_ids"])
        oracle.levels = [
            np.array(level_ids[level_indptr[i] : level_indptr[i + 1]])
            for i in range(oracle.k)
        ]
        oracle._pivots = np.asarray(arrays["pivots"])
        oracle._pivot_dist = np.asarray(arrays["pivot_dist"])
        bunch_indptr = np.asarray(arrays["bunch_indptr"])
        bunch_ids = np.asarray(arrays["bunch_ids"])
        bunch_dist = np.asarray(arrays["bunch_dist"])
        oracle._bunches = []
        for v in range(n):
            lo, hi = int(bunch_indptr[v]), int(bunch_indptr[v + 1])
            oracle._bunches.append(
                {
                    int(w): float(d)
                    for w, d in zip(bunch_ids[lo:hi], bunch_dist[lo:hi])
                }
            )
        return oracle

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def bunch(self, v: NodeId) -> Dict[NodeId, float]:
        """B(v) with stored (quantized) distances."""
        return self._bunches[v]

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """The TZ query walk; a (2k−1)-approximation of d(u, v)."""
        u, v = as_node_pair(u, v, self.metric.n)
        if u == v:
            return 0.0
        w = u
        i = 0
        while w not in self._bunches[v]:
            i += 1
            if i >= self.k:
                break  # cannot happen for k>=1 (top pivots are global)
            u, v = v, u
            w = int(self._pivots[u, i])
        d_wu = self._bunches[u].get(w)
        if d_wu is None:
            d_wu = self.codec.roundtrip(self.metric.distance(w, u))
        d_wv = self._bunches[v].get(w)
        if d_wv is None:
            d_wv = self.codec.roundtrip(self.metric.distance(w, v))
        return d_wu + d_wv

    def stretch_bound(self) -> int:
        """The guaranteed worst-case stretch 2k−1."""
        return 2 * self.k - 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def label_bits(self, v: NodeId) -> SizeAccount:
        account = SizeAccount()
        n = self.metric.n
        entries = len(self._bunches[v])
        account.add("bunch_ids", entries * bits_for_count(n))
        account.add("bunch_distances", entries * self.codec.bits_per_distance)
        account.add("pivot_ids", self.k * bits_for_count(n))
        return account

    def max_label_bits(self) -> int:
        return max(self.label_bits(v).total_bits for v in range(self.metric.n))

    def max_bunch_size(self) -> int:
        """Expected O(k n^{1/k}); measured."""
        return max(len(b) for b in self._bunches)

    def expected_bunch_bound(self) -> float:
        """The theory's k·n^{1/k} expectation, for shape comparison."""
        return self.k * self.metric.n ** (1.0 / self.k)
