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

The label of v stores its pivots and its bunch with distances.  The
bunches live only in the CSR arrays a container saves (ascending ids per
row), and a batch of queries walks the pivots in lockstep with one
``searchsorted`` per level over the keys ``row·n + id``.  The bench
compares its label size and accuracy against the doubling-aware schemes
of §3 on doubling and non-doubling inputs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro._types import NodeId, as_node_pair, as_node_pairs
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
    in ``[0, n)`` and ``pivot_dist`` an (n, k) finite array >= 0.

    The query walk reads ``dist[a, w]`` and ``dist[b, w]`` without a
    fallback, so three memberships must hold too: every node is in its
    own bunch, every pivot p_i(v) is in B(v), and every top-level pivot
    p_{k-1}(·) is in every bunch (where every walk ends)."""
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
    ids = np.asarray(arrays["bunch_ids"], dtype=np.int64)
    keys = _bunch_keys(np.asarray(arrays["bunch_indptr"], dtype=np.int64), ids, n)
    nodes = np.arange(n, dtype=np.int64)
    if not _holds(keys, nodes, nodes, n).all():
        fail("every node must be in its own bunch")
    pivots = pivots.astype(np.int64)
    if not _holds(keys, np.repeat(nodes, k), pivots.ravel(), n).all():
        fail("every pivot p_i(v) must be in the bunch B(v)")
    # Ids ascend strictly within a row, so an id held by all n rows
    # occurs exactly n times.
    if np.any(np.bincount(ids, minlength=n)[pivots[:, k - 1]] != n):
        fail("every top-level pivot p_{k-1} must be in every bunch")


def _bunch_keys(indptr: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """The sorted search keys ``row·n + id`` of CSR bunch rows whose ids
    ascend."""
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return rows * n + ids


def _holds(keys: np.ndarray, rows: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Whether each ``ids[j]`` is in bunch ``rows[j]``."""
    if keys.size == 0:
        return np.zeros(rows.shape, dtype=bool)
    want = rows * n + ids
    at = np.minimum(keys.searchsorted(want), keys.size - 1)
    return keys[at] == want


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
        top = np.zeros(n, dtype=np.intp)  # i with w in A_i \ A_{i+1}
        for i, level in enumerate(self.levels[1:], start=1):
            top[level] = i

        # Pivots p_i(v), the distances d(A_i, v), and the bunches
        # B(v) = {w in A_i \ A_{i+1} : d(w, v) < d(A_{i+1}, v)} ∪ pivots,
        # one ascending row per node.
        pivots = np.zeros((n, k), dtype=np.int64)
        pivot_dist = np.zeros((n, k))
        indptr = np.zeros(n + 1, dtype=np.int64)
        ids_rows: List[np.ndarray] = []
        dist_rows: List[np.ndarray] = []
        for v in range(n):
            row = metric.distances_from(v)
            for i, level in enumerate(self.levels):
                pivots[v, i] = level[np.argmin(row[level])]
            pivot_dist[v] = row[pivots[v]]
            reach = np.append(pivot_dist[v, 1:], np.inf)  # d(A_{i+1}, v)
            member = row < reach[top]
            member[pivots[v]] = True
            ids = np.flatnonzero(member)
            ids_rows.append(ids)
            dist_rows.append(self.codec.roundtrip_many(row[ids]))
            indptr[v + 1] = indptr[v] + ids.size
        self._adopt(pivots, pivot_dist, indptr,
                    np.concatenate(ids_rows).astype(np.int64), np.concatenate(dist_rows))

    def _adopt(self, pivots, pivot_dist, indptr, ids, dist) -> None:
        self._pivots = pivots
        self._pivot_dist = pivot_dist
        self._bunch_indptr = indptr
        self._bunch_ids = ids
        self._bunch_dist = dist
        self._keys = _bunch_keys(indptr, ids, self.metric.n)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_arrays(self) -> tuple:
        """(meta, arrays) inventory: pivots/pivot distances as dense
        (n, k) blocks, the level hierarchy and the bunches as CSR."""
        level_indptr = np.zeros(self.k + 1, dtype=np.int64)
        for i, level in enumerate(self.levels):
            level_indptr[i + 1] = level_indptr[i] + level.size
        meta = {
            "n": int(self.metric.n),
            "k": int(self.k),
            "codec": {
                "min_distance": self.codec.min_distance,
                "max_distance": self.codec.max_distance,
                "mantissa_bits": self.codec.mantissa_bits,
            },
        }
        arrays = {
            "level_indptr": level_indptr,
            "level_ids": np.concatenate(self.levels).astype(np.int64),
            "pivots": self._pivots,
            "pivot_dist": self._pivot_dist,
            "bunch_indptr": self._bunch_indptr,
            "bunch_ids": self._bunch_ids,
            "bunch_dist": self._bunch_dist,
        }
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, metric: MetricSpace, meta: dict, arrays: dict
    ) -> "ThorupZwickOracle":
        """Adopt the arrays of :meth:`to_arrays` (zero copy), refusing
        malformed ones (:func:`_check_arrays`)."""
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
        oracle._adopt(
            np.asarray(arrays["pivots"], dtype=np.int64),
            np.asarray(arrays["pivot_dist"]),
            np.asarray(arrays["bunch_indptr"], dtype=np.int64),
            np.asarray(arrays["bunch_ids"], dtype=np.int64),
            np.asarray(arrays["bunch_dist"], dtype=float),
        )
        return oracle

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def bunch(self, v: NodeId) -> Dict[NodeId, float]:
        """B(v) with stored (quantized) distances."""
        lo, hi = self._bunch_indptr[v], self._bunch_indptr[v + 1]
        return dict(zip(self._bunch_ids[lo:hi].tolist(), self._bunch_dist[lo:hi].tolist()))

    def estimate_many(self, us, vs) -> np.ndarray:
        """The TZ query walk for a batch of pairs, in lockstep: at level
        i = 1..k−1 every pair whose w is not in B(b) swaps a and b and
        takes w = p_i(a).  Each answer is d(a, w) + d(b, w) from the
        bunches, a (2k−1)-approximation of d(u, v) (0 on the diagonal)."""
        n = self.metric.n
        a, b = as_node_pairs(us, vs, n)
        w = a
        for i in range(1, self.k):
            miss = ~_holds(self._keys, b, w, n)
            if not miss.any():
                break
            a, b = np.where(miss, b, a), np.where(miss, a, b)
            w = np.where(miss, self._pivots[a, i], w)
        dist, keys = self._bunch_dist, self._keys
        out = dist[keys.searchsorted(a * n + w)] + dist[keys.searchsorted(b * n + w)]
        out[a == b] = 0.0
        return out

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """The TZ query walk for one pair (a batch of one)."""
        u, v = as_node_pair(u, v, self.metric.n)
        return float(self.estimate_many([u], [v])[0])

    def stretch_bound(self) -> int:
        """The guaranteed worst-case stretch 2k−1."""
        return 2 * self.k - 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def label_bits(self, v: NodeId) -> SizeAccount:
        account = SizeAccount()
        n = self.metric.n
        entries = int(self._bunch_indptr[v + 1] - self._bunch_indptr[v])
        account.add("bunch_ids", entries * bits_for_count(n))
        account.add("bunch_distances", entries * self.codec.bits_per_distance)
        account.add("pivot_ids", self.k * bits_for_count(n))
        return account

    def max_label_bits(self) -> int:
        return max(self.label_bits(v).total_bits for v in range(self.metric.n))

    def max_bunch_size(self) -> int:
        """Expected O(k n^{1/k}); measured."""
        return int(np.diff(self._bunch_indptr).max())

    def expected_bunch_bound(self) -> float:
        """The theory's k·n^{1/k} expectation, for shape comparison."""
        return self.k * self.metric.n ** (1.0 / self.k)
