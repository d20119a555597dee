"""Theorem 3.4 — distance labeling in ``O_{α,δ}(log n)(log log Δ)`` bits.

This is the paper's flagship labeling result: it removes the
``ceil(log n)``-bit global node ids from the Theorem 3.2 labels.  A label
stores only

* per-scale arrays of **quantized distances** to the X/Y-neighbors (no
  ids — a neighbor is referred to by its position in its scale segment);
* **translation maps** ζ_ui: knowing the position of a node f in u's
  level-i segments and the index of w in f's *virtual enumeration*,
  produce w's position in u's level-(i+1) segments;
* the **zooming sequence** f_u, where ``f_u0`` is given by its position in
  the (globally coinciding) level-0 segment and each ``f_{u,i}`` by its
  index in the virtual enumeration of ``f_{u,i-1}`` (Claim 3.5(c)
  guarantees that index exists).

*Virtual neighbors* (the set T_u) are the paper's trick for keeping those
indices short: ``T_u = X_u ∪ Z_u ∪ (∪_{v ∈ X_u} Z_v)`` where
``Z_uj = B_u(2^j) ∩ G_{max(0, floor(log2(2^j δ/64)))}``, so
``|T_u| = O_{α,δ}(log n · log Δ)`` and an index costs
``O(log log n + log log Δ)`` bits.

Decoding (two labels only, no ids): identify both zooming sequences level
by level through the translation maps of *both* labels; every identified
node is a common neighbor with known stored distances; additionally scan
the translation maps for entries keyed by an identified f — matching
virtual indices on both sides identify more common neighbors (this is how
the proof's near-optimal common neighbor w0 is found).  The estimate is
D+ = min over identified common neighbors b of (d_ub + d_vb); the paper's
analysis makes it a (1+O(δ))-approximation for every pair.

Level-0 segments coincide across nodes by the ScaleStructure convention,
so positions in them are globally meaningful — the decoder seeds both
chains from them and also harvests every level-0 member directly (this
covers the boundary case where the pair's critical scale is i = 0).

Storage: the labels live only in the arrays :meth:`RingDLS.to_arrays`
returns (a loaded structure keeps the container's).  A pointer is a
(type, index) pair into one segment, types X = 0 and Y = 1.  Segment
(u, i, typ) is CSR row ``(u·L + i)·2 + typ`` of ``seg_indptr``/``seg_dist``
(L = ``levels_n``); ζ_ui is CSR row ``u·(L−1) + i`` of
``zeta_indptr``/``zeta_data``, whose ``[v_typ, v_idx, ψ, w_typ, w_idx]``
rows map a level-i pointer and ψ to a level-(i+1) pointer, sorted by the
key (v_typ, v_idx, ψ) — so a lookup is one ``searchsorted`` and one source
pointer's entries are one slice; ``zoom0_idx``/``zoom_psi`` hold the
zooming sequences (−1 for "none") and ``size_bits`` the size accounts.
One decoder reads them, vectorized over a batch of pairs; Theorem 4.2's
routing uses its :meth:`RingDLS._chains` and :meth:`RingDLS._translate`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair, as_node_pairs
from repro.bits import SizeAccount, bits_for_count
from repro.core.packed import pack_csr, spans
from repro.labeling._scales import ScaleStructure
from repro.labeling.encoding import DistanceCodec
from repro.metrics.base import MetricSpace
from repro.serve.container import ContainerError, check_indptr

#: Segment type codes of a pointer (typ, idx).
X, Y = 0, 1

#: A label's size-account categories, one ``size_bits`` column each.
_CATEGORIES = ("neighbor_distances", "translation_triples", "zoom_anchor",
               "zoom_virtual_indices")

#: The label arrays and the dtype each is held in.
_LAYOUT = {"seg_indptr": np.int64, "seg_dist": np.float64, "zeta_indptr": np.int64,
           "zeta_data": np.int64, "zoom0_idx": np.int64, "zoom_psi": np.int64,
           "size_bits": np.int64}

#: Pairs per vectorized decoding pass (bounds the ζ harvest's temporaries).
_DECODE_CHUNK = 1024


def _zeta_keys(n: int, span: int, zeta_indptr, zeta) -> np.ndarray:
    """The search key of every ζ row, plus an int64-max sentinel.

    Row ``[v_typ, v_idx, ψ, ·, ·]`` of table ``tab = u·(L−1) + i`` gets
    ``((tab·2 + v_typ)·span + v_idx)·n + ψ``.  With ``v_idx < span`` and
    ``ψ < n`` the keys ascend exactly when every table's rows are sorted
    by (v_typ, v_idx, ψ) without a repeat.
    """
    tables = np.repeat(
        np.arange(zeta_indptr.size - 1, dtype=np.int64), np.diff(zeta_indptr)
    )
    keys = np.empty(zeta.shape[0] + 1, dtype=np.int64)
    keys[:-1] = ((tables * 2 + zeta[:, 0]) * span + zeta[:, 1]) * n + zeta[:, 2]
    keys[-1] = np.iinfo(np.int64).max
    return keys


def _twice(values: np.ndarray) -> np.ndarray:
    """``values`` for both labels of each pair, side by side."""
    return np.concatenate([values, values])


def _span(seg_indptr: np.ndarray) -> int:
    """The key radix of segment positions: the longest segment (>= 1)."""
    return max(1, int(np.diff(seg_indptr).max(initial=0)))


def _check_arrays(n: int, levels_n: int, categories: int, arrays: dict) -> np.ndarray:
    """Refuse persisted labels that would decode wrong, with a
    :class:`~repro.serve.container.ContainerError` naming the check, and
    return the ζ search keys (:func:`_zeta_keys`).

    The CSR offsets slice 2·n·levels_n segments and n·(levels_n − 1)
    tables (:func:`~repro.serve.container.check_indptr`); distances are
    finite and >= 0; type codes are X or Y; ψ and ``zoom_psi`` lie in
    [-1 or 0, n); every position — ζ sources and targets, ``zoom0_idx``
    — indexes its own segment, since a flat read past a segment's end
    would return the next one's distance; and each table's keys strictly
    ascend, since a repeated key is ambiguous and lookups search them.
    """
    what = "labels arrays"

    def fail(check: str) -> None:
        raise ContainerError(f"malformed {what}: {check}")

    dist = np.asarray(arrays["seg_dist"])
    if dist.ndim != 1:
        fail("seg_dist must be one-dimensional")
    seg_indptr = check_indptr(what, "seg_indptr", arrays["seg_indptr"],
                              ("2·n·levels_n", 2 * n * levels_n),
                              ("len(seg_dist)", dist.size))
    if dist.dtype.kind not in "fiu" or not np.all(np.isfinite(dist) & (dist >= 0)):
        fail("seg_dist must be finite and >= 0")
    zeta = np.asarray(arrays["zeta_data"])
    if zeta.dtype.kind not in "iu" or zeta.ndim != 2 or zeta.shape[1] != 5:
        fail(f"zeta_data must be an (m, 5) integer array (has {zeta.dtype} {zeta.shape})")
    zeta_indptr = check_indptr(what, "zeta_indptr", arrays["zeta_indptr"],
                               ("n·(levels_n - 1)", n * max(0, levels_n - 1)),
                               ("len(zeta_data)", zeta.shape[0]))
    if zeta.size:
        codes = zeta[:, [0, 3]]
        if codes.min() < 0 or codes.max() > Y:
            fail(f"zeta_data type codes (columns 0 and 3) must lie in [0, {Y + 1})")
        if zeta[:, [1, 2, 4]].min() < 0:
            fail("zeta_data positions and virtual indices (columns 1, 2 and 4) "
                 "must be >= 0")
    for key, shape, low in (
        ("zoom0_idx", (n,), 0),
        ("zoom_psi", (n, levels_n), -1),
        ("size_bits", (n, categories), 0),
    ):
        values = np.asarray(arrays[key])
        if values.dtype.kind not in "iu" or values.shape != shape:
            fail(f"{key} must be an integer array of shape {shape} "
                 f"(has {values.dtype} {values.shape})")
        if values.size and values.min() < low:
            fail(f"{key} entries must be >= {low}")
    seg_len = np.diff(seg_indptr)
    if np.any(np.asarray(arrays["zoom0_idx"]) >= seg_len[2 * levels_n * np.arange(n) + Y]):
        fail("zoom0_idx entries must index their node's level-0 Y segment")
    if np.asarray(arrays["zoom_psi"]).max(initial=-1) >= n:
        fail(f"zoom_psi entries must be < n = {n}")
    zeta = zeta.astype(np.int64, copy=False)
    span = _span(seg_indptr)
    if zeta.size:
        if zeta[:, 2].max() >= n:
            fail(f"zeta_data virtual indices (column 2) must be < n = {n}")
        tables = np.repeat(
            np.arange(zeta_indptr.size - 1, dtype=np.int64), np.diff(zeta_indptr)
        )
        # Segment row of each entry's level-i source: (u·L + i)·2.
        base = 2 * (tables + tables // (levels_n - 1))
        if np.any(zeta[:, 1] >= seg_len[base + zeta[:, 0]]):
            fail("zeta_data source positions (column 1) must index their level-i segment")
        if np.any(zeta[:, 4] >= seg_len[base + 2 + zeta[:, 3]]):
            fail("zeta_data target positions (column 4) must index their "
                 "level-(i+1) segment")
        if n * max(1, levels_n - 1) * 2 * span * n >= 2**63:
            fail("zeta_data search keys would overflow int64")
    keys = _zeta_keys(n, span, zeta_indptr, zeta)
    if np.any(np.diff(keys) <= 0):
        fail("zeta_data keys (v_typ, v_idx, psi) must strictly ascend within "
             "each (node, level) table")
    return keys


class RingDLS:
    """Theorem 3.4's (1+δ)-approximate distance labeling scheme."""

    def __init__(
        self,
        metric: MetricSpace,
        delta: float,
        scales: Optional[ScaleStructure] = None,
        mantissa_bits: Optional[int] = None,
    ) -> None:
        if not 0 < delta < 0.5:
            raise ValueError(f"Theorem 3.4 needs delta in (0, 1/2), got {delta}")
        self.metric = metric
        self.delta = delta
        self.scales = scales if scales is not None else ScaleStructure(metric, delta)
        if mantissa_bits is None:
            mantissa_bits = max(4, int(np.ceil(np.log2(8.0 / delta))))
        self.codec = DistanceCodec.for_metric(metric, mantissa_bits)

        self._z_levels = metric.log_aspect_ratio() + 2
        self._t_indptr, self._t_members = self._virtual_enumerations()
        self._adopt(self._build_arrays(), self.scales.levels_n, list(_CATEGORIES))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _z_neighbors(self, u: NodeId, j: int) -> np.ndarray:
        """``Z_uj = B_u(2^j) ∩ G_l``, ``l = max(0, floor(log2(2^j δ/64)))``.

        Radii are scaled by the metric's minimum distance (the paper
        normalizes the minimum distance to 1).
        """
        scales = self.scales
        radius = scales.base * float(2**j)
        level = scales.net_level(radius * self.delta / 64.0)
        return scales.nets.members_in_ball(level, u, radius)

    def _virtual_enumerations(self) -> Tuple[np.ndarray, np.ndarray]:
        """``T_u = X_u ∪ Z_u ∪ (∪_{v ∈ X_u} Z_v)`` for every u, as a CSR
        block of sorted int64 rows (each ``Z_v`` is computed once)."""
        scales = self.scales
        n = self.metric.n
        z = [
            np.concatenate([self._z_neighbors(u, j) for j in range(self._z_levels + 1)])
            for u in range(n)
        ]
        rows = []
        for u in range(n):
            x_all = np.unique(np.fromiter(
                (x for i in range(scales.levels_n) for x in scales.x_neighbors(u, i)),
                dtype=np.int64,
            ))
            rows.append(np.unique(np.concatenate([x_all, z[u], *(z[v] for v in x_all)])))
        return pack_csr(rows, dtype=np.int64)

    def virtual_index(self, v: NodeId, w: NodeId) -> Optional[int]:
        """ψ: the index of w in v's virtual enumeration T_v, or None."""
        row = self._t_members[self._t_indptr[v] : self._t_indptr[v + 1]]
        k = int(np.searchsorted(row, w))
        return k if k < row.size and row[k] == w else None

    def virtual_size(self, v: NodeId) -> int:
        """|T_v|."""
        return int(self._t_indptr[v + 1] - self._t_indptr[v])

    def _build_arrays(self) -> dict:
        """Every label, written straight into the :meth:`to_arrays` layout."""
        scales, codec = self.scales, self.codec
        n, levels_n = self.metric.n, scales.levels_n
        t_sizes = np.diff(self._t_indptr)
        t_keys = np.repeat(np.arange(n, dtype=np.int64) * n, t_sizes) + self._t_members
        t_bits = np.array([bits_for_count(int(k)) for k in t_sizes], dtype=np.int64)
        seg_chunks: List[np.ndarray] = []
        zeta_chunks: List[np.ndarray] = []
        zoom0_idx = np.zeros(n, dtype=np.int64)
        zoom_psi = np.full((n, levels_n), -1, dtype=np.int64)
        size_bits = np.zeros((n, len(_CATEGORIES)), dtype=np.int64)
        for u in range(n):
            row = np.asarray(self.metric.distances_from(u), dtype=float)
            segs = [
                tuple(np.asarray(members, dtype=np.int64)
                      for members in (scales.x_neighbors(u, i), scales.y_neighbors(u, i)))
                for i in range(levels_n)
            ]
            for members in (m for seg in segs for m in seg):
                seg_chunks.append(codec.roundtrip_many(row[members]))
            size_bits[u, 0] = codec.bits_per_distance * sum(x.size + y.size for x, y in segs)
            # A level-i pointer costs a type flag and an index.
            ptr_bits = [1 + bits_for_count(max(x.size, y.size)) for x, y in segs]
            for i in range(levels_n - 1):
                table, bits = self._table(
                    segs[i], segs[i + 1], t_keys, t_bits, ptr_bits[i] + ptr_bits[i + 1]
                )
                zeta_chunks.append(table)
                size_bits[u, 1] += bits

            zoom = scales.zooming_sequence(u)
            y0 = segs[0][1]
            idx0 = int(np.searchsorted(y0, zoom[0]))
            if idx0 >= y0.size or y0[idx0] != zoom[0]:
                raise RuntimeError(
                    f"zooming anchor f_{u},0 not in the level-0 Y segment "
                    "(ScaleStructure invariant violated)"
                )
            zoom0_idx[u] = idx0
            size_bits[u, 2] = bits_for_count(y0.size)
            for i in range(1, levels_n):
                prev = zoom[i - 1]
                psi = self.virtual_index(prev, zoom[i])
                # Claim 3.5(c): f_ui is a virtual neighbor of f_{u,i-1}.
                if psi is None:
                    raise RuntimeError(
                        f"Claim 3.5(c) violated: f_({u},{i})={zoom[i]} is not a "
                        f"virtual neighbor of f_({u},{i-1})={prev}"
                    )
                zoom_psi[u, i] = psi
                size_bits[u, 3] += t_bits[prev]

        seg_indptr, seg_dist = pack_csr(seg_chunks, dtype=np.float64)
        zeta_indptr = np.zeros(len(zeta_chunks) + 1, dtype=np.int64)
        zeta_indptr[1:] = np.cumsum([t.shape[0] for t in zeta_chunks])
        zeta = np.concatenate(zeta_chunks) if zeta_chunks else np.empty((0, 5), np.int64)
        return dict(seg_indptr=seg_indptr, seg_dist=seg_dist, zeta_indptr=zeta_indptr,
                    zeta_data=zeta, zoom0_idx=zoom0_idx, zoom_psi=zoom_psi,
                    size_bits=size_bits)

    def _table(self, level, upper, t_keys, t_bits, ptr_bits) -> Tuple[np.ndarray, int]:
        """One translation table ζ_ui from the (X, Y) member arrays of
        scales i and i+1: a row ``[v_typ, v_idx, ψ, w_typ, w_idx]`` for
        every level-i pointer (v_typ, v_idx) of a node v and every
        level-(i+1) member w of T_v (ψ = w's index in T_v), in key order
        (v_typ, v_idx, ψ) — and the bits the size account charges for it.

        A member w of both X_{i+1} and Y_{i+1} is stored as its Y pointer
        but charged once per pointer it has: every (v pointer, w pointer)
        pair costs the two pointers and ψ.  The committed label digests
        and ResultSets pin both rules.
        """
        n = self.metric.n
        x, y = level
        upper_x, upper_y = upper
        w = np.union1d(upper_x, upper_y)
        in_y = np.isin(w, upper_y)
        w_typ = in_y.astype(np.int64)
        w_idx = np.where(in_y, np.searchsorted(upper_y, w), np.searchsorted(upper_x, w))
        w_count = np.isin(w, upper_x).astype(np.int64) + in_y
        src = np.concatenate([x, y])
        src_typ = np.repeat(np.array([X, Y], dtype=np.int64), [x.size, y.size])
        src_idx = np.concatenate([np.arange(x.size), np.arange(y.size)])
        # One sorted search of every (v, w) pair among the T rows; w and
        # each T_v ascend, so ψ ascends along each pointer's entries.
        query = (src * n)[:, None] + w
        pos = np.searchsorted(t_keys, query)
        r, c = np.nonzero(t_keys[np.minimum(pos, t_keys.size - 1)] == query)
        psi = pos[r, c] - self._t_indptr[src[r]]
        table = np.stack([src_typ[r], src_idx[r], psi, w_typ[c], w_idx[c]], axis=1)
        bits = int(np.sum(w_count[c] * (ptr_bits + t_bits[src[r]])))
        return table, bits

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _adopt(self, arrays: dict, levels_n: int, categories: List[str], keys=None) -> None:
        """Hold ``arrays`` as the labels (no copy in their own dtypes) and
        index their ζ rows for the decoder."""
        self._levels_n, self._n, self._categories = levels_n, int(self.metric.n), categories
        self._arrays = {name: np.asarray(arrays[name]).astype(dtype, copy=False)
                        for name, dtype in _LAYOUT.items()}
        self._seg_indptr, self._seg_dist = self._arrays["seg_indptr"], self._arrays["seg_dist"]
        self._zeta = self._arrays["zeta_data"]
        self._zoom0, self._zoom_psi = self._arrays["zoom0_idx"], self._arrays["zoom_psi"]
        self._size_bits = self._arrays["size_bits"]
        self._span = _span(self._seg_indptr)
        self._zeta_key = keys if keys is not None else _zeta_keys(
            self._n, self._span, self._arrays["zeta_indptr"], self._zeta
        )

    def to_arrays(self) -> tuple:
        """(meta, arrays) inventory for the on-disk container: the arrays
        the labels live in (see the module docstring), as held."""
        meta = {
            "n": self._n,
            "delta": self.delta,
            "levels_n": self._levels_n,
            "size_categories": list(self._categories),
            "codec": {
                "min_distance": self.codec.min_distance,
                "max_distance": self.codec.max_distance,
                "mantissa_bits": self.codec.mantissa_bits,
            },
        }
        return meta, dict(self._arrays)

    @classmethod
    def from_arrays(cls, metric: MetricSpace, meta: dict, arrays: dict) -> "RingDLS":
        """Rehydrate from :meth:`to_arrays`, keeping the arrays once
        :func:`_check_arrays` has passed them.  The result decodes
        bit-for-bit; the construction-time scale structure and virtual
        enumerations are not persisted (``scales`` is None)."""
        codec_meta = meta["codec"]
        n = int(meta["n"])
        levels_n = int(meta["levels_n"])
        categories = list(meta["size_categories"])
        keys = _check_arrays(n, levels_n, len(categories), arrays)

        dls = cls.__new__(cls)
        dls.metric = metric
        dls.delta = float(meta["delta"])
        dls.scales = None
        dls.codec = DistanceCodec(
            float(codec_meta["min_distance"]),
            float(codec_meta["max_distance"]),
            int(codec_meta["mantissa_bits"]),
        )
        dls._t_indptr = dls._t_members = None
        dls._adopt(arrays, levels_n, categories, keys)
        return dls

    # ------------------------------------------------------------------
    # Decoding (labels only), vectorized over a batch
    # ------------------------------------------------------------------

    def _segment(self, nodes, levels, typs) -> Tuple[np.ndarray, np.ndarray]:
        """(start in ``seg_dist``, length) of each segment (node, level, typ)."""
        rows = (nodes * self._levels_n + levels) * 2 + typs
        start = self._seg_indptr[rows]
        return start, self._seg_indptr[rows + 1] - start

    def _distance(self, nodes, levels, typs, idxs) -> np.ndarray:
        """The stored distance behind each pointer (typ, idx) of a node's
        level-``levels`` segments."""
        return self._seg_dist[self._segment(nodes, levels, typs)[0] + idxs]

    def _key(self, nodes, levels, typs, idxs):
        """The ζ search key of each pointer's first possible entry (ψ = 0)
        in its node's level-``levels`` table (``levels < levels_n − 1``)."""
        tables = nodes * (self._levels_n - 1) + levels
        return ((tables * 2 + typs) * self._span + idxs) * self._n

    def _translate(self, nodes, levels, typs, idxs, psis) -> Tuple[np.ndarray, np.ndarray]:
        """ζ lookups, one ``searchsorted`` for the batch: for each node's
        level-``levels`` table (``levels < levels_n − 1``), pointer
        (typ, idx) and ψ, ``(found, rows)`` — ``zeta_data[rows]`` is the
        entry where ``found``.  A ψ outside [0, n) aliases another
        pointer's key, so callers mask it."""
        keys = self._key(nodes, levels, typs, idxs) + psis
        rows = self._zeta_key.searchsorted(keys)
        return self._zeta_key[rows] == keys, rows

    def _chains(self, a, b) -> Tuple[np.ndarray, ...]:
        """Each node a's zooming chain identified in the labels of a and b,
        walked in lockstep for the whole batch (one :meth:`_translate` per
        level) and stopped at the first level either label's translation
        map has no entry for.

        Returns ``(d, level, a_typ, a_idx, b_typ, b_idx)``: one record per
        identified f_{a,level} of pair ``d``, its pointer in a's and in
        b's label, ordered by level.
        """
        zeta = self._zeta
        # Level-0 segments coincide across nodes: f_a0 sits at the same
        # Y_0 position in b's label — when b's Y_0 is that long.
        idx = self._zoom0[a]
        d = np.flatnonzero(idx < self._segment(b, 0, Y)[1])
        # Both labels' pointers side by side: a's half, then b's.
        nodes = np.concatenate([a[d], b[d]])
        typ, idx = np.full(2 * d.size, Y), _twice(idx[d])
        steps = [(d, typ, idx)]
        for i in range(1, self._levels_n):
            half = d.size
            psi = self._zoom_psi[nodes[:half], i]
            found, rows = self._translate(nodes, i - 1, typ, idx, _twice(psi))
            keep = (psi >= 0) & found[:half] & found[half:]
            if not keep.all():
                d, both = d[keep], _twice(keep)
                nodes, rows = nodes[both], rows[both]
                if not d.size:
                    break
            typ, idx = zeta[rows, 3], zeta[rows, 4]
            steps.append((d, typ, idx))
        level = np.repeat(np.arange(len(steps)), [step[0].size for step in steps])
        d = np.concatenate([step[0] for step in steps])
        typ, idx = (np.concatenate([step[k].reshape(2, -1) for step in steps], axis=1)
                    for k in (1, 2))
        return d, level, typ[0], idx[0], typ[1], idx[1]

    def _decode(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """D+ for pairs with u != v: the min of d_ub + d_vb over the
        common neighbors b the two labels identify."""
        size, n, zeta = u.size, self._n, self._zeta
        pair_of: List[np.ndarray] = []
        value: List[np.ndarray] = []

        # Level-0 segments coincide globally: every member is common.
        typs = np.arange(2 * size) % 2  # X then Y for each pair
        start_u, len_u = self._segment(np.repeat(u, 2), 0, typs)
        start_v, len_v = self._segment(np.repeat(v, 2), 0, typs)
        count = np.minimum(len_u, len_v)
        at_u = spans(start_u, count)
        pair_of.append(np.repeat(np.arange(2 * size) // 2, count))
        value.append(self._seg_dist[at_u]
                     + self._seg_dist[at_u + np.repeat(start_v - start_u, count)])

        # Both zooming chains, identified in both labels: each record's
        # pointers side by side, u's label's half then v's.
        d, level, a_typ, a_idx, b_typ, b_idx = self._chains(
            np.concatenate([u, v]), np.concatenate([v, u])
        )
        pair, flip = d % size, d >= size  # flipped: v's chain, so a is v
        records = d.size
        nodes = np.concatenate([u[pair], v[pair]])
        typ = np.concatenate([np.where(flip, b_typ, a_typ), np.where(flip, a_typ, b_typ)])
        idx = np.concatenate([np.where(flip, b_idx, a_idx), np.where(flip, a_idx, b_idx)])
        pair_of.append(pair)
        value.append(self._distance(nodes, _twice(level), typ, idx).reshape(2, -1).sum(0))

        # Harvest: entries keyed by an identified f with the same ψ on
        # both sides are common neighbors (ψ indexes f's one enumeration).
        # Each record's two source slices are merged once, rows tagged
        # record·n + ψ (ψ ascends within a slice).
        h = np.flatnonzero(level < self._levels_n - 1)
        if h.size:
            both = np.concatenate([h, h + records])
            first = self._key(nodes[both], _twice(level[h]), typ[both], idx[both])
            lo = self._zeta_key.searchsorted(first)
            count = self._zeta_key.searchsorted(first + n) - lo
            rows = spans(lo, count)
            tag = np.repeat(_twice(h), count) * n + zeta[rows, 2]
            split = int(count[: h.size].sum())
            tag_u, tag_v = tag[:split], tag[split:]
            if tag_u.size and tag_v.size:
                at = np.minimum(tag_u.searchsorted(tag_v), tag_u.size - 1)
                hit = tag_u[at] == tag_v
                rec = tag_v[hit] // n
                w = np.concatenate([rows[:split][at[hit]], rows[split:][hit]])
                pair_of.append(pair[rec])
                value.append(self._distance(
                    np.concatenate([nodes[rec], nodes[rec + records]]),
                    _twice(level[rec] + 1), zeta[w, 3], zeta[w, 4],
                ).reshape(2, -1).sum(0))

        best = np.full(size, np.inf)
        np.minimum.at(best, np.concatenate(pair_of), np.concatenate(value))
        return best

    def estimate_many(self, us, vs) -> np.ndarray:
        """D+ for a batch of pairs (0 on the diagonal), decoded from the
        two labels of each pair in vectorized passes of up to
        ``_DECODE_CHUNK`` pairs."""
        us, vs = as_node_pairs(us, vs, self.metric.n)
        out = np.zeros(us.shape[0], dtype=float)
        off = np.flatnonzero(us != vs)
        for lo in range(0, off.size, _DECODE_CHUNK):
            sel = off[lo : lo + _DECODE_CHUNK]
            out[sel] = self._decode(us[sel], vs[sel])
        return out

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """Distance estimate for a node pair via their labels (a batch of
        one)."""
        u, v = as_node_pair(u, v, self.metric.n)
        return 0.0 if u == v else float(self._decode(np.array([u]), np.array([v]))[0])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def label_bits(self, u: NodeId) -> SizeAccount:
        return SizeAccount(
            {cat: int(bits) for cat, bits in zip(self._categories, self._size_bits[u])}
        )

    def max_label_bits(self) -> int:
        return int(self._size_bits.sum(axis=1).max())

    def mean_label_bits(self) -> float:
        return float(np.mean(self._size_bits.sum(axis=1)))

    def max_virtual_neighbors(self) -> int:
        """max_u |T_u| — the paper bounds it by O_{α,δ}(log n · log Δ)."""
        if self._t_indptr is None:
            raise RuntimeError(
                "virtual-neighbor enumerations are construction-time state "
                "and are not persisted; unavailable on a loaded structure"
            )
        return int(np.diff(self._t_indptr).max())

    # ------------------------------------------------------------------
    # Simulation helpers (not part of the decoding protocol)
    # ------------------------------------------------------------------

    def segment_node(self, u: NodeId, level: int, typ: int, idx: int) -> NodeId:
        """The physical node behind pointer (typ, idx) of u's level-``level``
        segments.

        Only tests and the Theorem 4.2 simulator use this — the decoding
        protocol itself never converts pointers to global ids (a real
        node resolves pointers to its first-hop slots).
        """
        scales = self.scales
        members = scales.x_neighbors(u, level) if typ == X else scales.y_neighbors(u, level)
        return members[idx]
