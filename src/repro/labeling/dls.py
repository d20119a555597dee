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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._types import NodeId, as_node_pair, as_node_pairs
from repro.bits import SizeAccount, bits_for_count
from repro.labeling._scales import ScaleStructure
from repro.labeling.encoding import DistanceCodec
from repro.metrics.base import MetricSpace
from repro.serve.container import ContainerError, check_indptr

#: A position in a node's per-scale segments: (segment type, level, index).
SegmentPointer = Tuple[str, int, int]


def _check_arrays(n: int, levels_n: int, categories: int, arrays: dict) -> None:
    """Refuse persisted labels that would decode wrong, with a
    :class:`~repro.serve.container.ContainerError` naming the check:
    ``seg_indptr`` slices ``seg_dist`` into 2·n·levels_n segments and
    ``zeta_indptr`` slices ``zeta_data`` into n·(levels_n − 1) tables
    (:func:`~repro.serve.container.check_indptr`); ``seg_dist`` is finite
    and >= 0; ``zeta_data`` is an (m, 5) integer array whose type codes
    (columns 0 and 3) index ``RingDLS._TYP_NAME`` and whose positions and
    virtual indices are >= 0; ``zoom0_idx`` (n,), ``zoom_psi``
    (n, levels_n) and ``size_bits`` (n, categories) are integer arrays
    with entries >= 0, >= -1 (-1 is "none") and >= 0."""
    what = "labels arrays"

    def fail(check: str) -> None:
        raise ContainerError(f"malformed {what}: {check}")

    dist = np.asarray(arrays["seg_dist"])
    if dist.ndim != 1:
        fail("seg_dist must be one-dimensional")
    check_indptr(what, "seg_indptr", arrays["seg_indptr"],
                 ("2·n·levels_n", 2 * n * levels_n), ("len(seg_dist)", dist.size))
    if dist.dtype.kind not in "fiu" or not np.all(np.isfinite(dist) & (dist >= 0)):
        fail("seg_dist must be finite and >= 0")
    zeta = np.asarray(arrays["zeta_data"])
    if zeta.dtype.kind not in "iu" or zeta.ndim != 2 or zeta.shape[1] != 5:
        fail(f"zeta_data must be an (m, 5) integer array (has {zeta.dtype} {zeta.shape})")
    check_indptr(what, "zeta_indptr", arrays["zeta_indptr"],
                 ("n·(levels_n - 1)", n * max(0, levels_n - 1)),
                 ("len(zeta_data)", zeta.shape[0]))
    if zeta.size:
        codes = zeta[:, [0, 3]]
        if codes.min() < 0 or codes.max() >= len(RingDLS._TYP_NAME):
            fail(f"zeta_data type codes (columns 0 and 3) must lie in "
                 f"[0, {len(RingDLS._TYP_NAME)})")
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


class _DetachedScales:
    """Stand-in scale structure for labels loaded from disk.

    Decoding only ever consults ``levels_n``; anything else was
    construction scaffolding and raises if touched.
    """

    def __init__(self, levels_n: int) -> None:
        self.levels_n = levels_n

    def __getattr__(self, name: str):
        raise RuntimeError(
            f"ScaleStructure.{name} is construction-time state and is not "
            "persisted; unavailable on a loaded structure"
        )


@dataclass
class NodeLabel:
    """The Theorem 3.4 label of one node (id-free).

    ``segments[(typ, i)]`` is the tuple of quantized distances to that
    scale's neighbors, in segment order.  ``zeta[i]`` maps
    ``(pointer_at_level_i, virtual_index) -> pointer_at_level_i_plus_1``.
    """

    segments: Dict[Tuple[str, int], Tuple[float, ...]]
    zeta: Dict[int, Dict[Tuple[SegmentPointer, int], SegmentPointer]]
    zoom0: SegmentPointer
    zoom_virtual_indices: Tuple[Optional[int], ...]
    size: SizeAccount

    def distance_at(self, ptr: SegmentPointer) -> float:
        typ, level, idx = ptr
        return self.segments[(typ, level)][idx]


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
        self._virtual: List[Tuple[NodeId, ...]] = [
            self._virtual_neighbors(u) for u in range(metric.n)
        ]
        self._virtual_index: List[Dict[NodeId, int]] = [
            {v: k for k, v in enumerate(t)} for t in self._virtual
        ]
        self.labels: List[NodeLabel] = [self._build_label(u) for u in range(metric.n)]
        # Lazily-built per-node decode index for the batched estimator:
        # zeta reorganized by source pointer + level-0 distance arrays.
        self._decode_index: List[Optional[tuple]] = [None] * metric.n

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _z_neighbors(self, u: NodeId, j: int) -> Tuple[NodeId, ...]:
        """``Z_uj = B_u(2^j) ∩ G_l``, ``l = max(0, floor(log2(2^j δ/64)))``.

        Radii are scaled by the metric's minimum distance (the paper
        normalizes the minimum distance to 1).
        """
        scales = self.scales
        radius = scales.base * float(2**j)
        level = scales.net_level(radius * self.delta / 64.0)
        members = scales.nets.members_in_ball(level, u, radius)
        return tuple(int(x) for x in members)

    def _virtual_neighbors(self, u: NodeId) -> Tuple[NodeId, ...]:
        """``T_u = X_u ∪ Z_u ∪ (∪_{v ∈ X_u} Z_v)`` as a sorted tuple."""
        scales = self.scales
        x_all: set[NodeId] = set()
        for i in range(scales.levels_n):
            x_all.update(scales.x_neighbors(u, i))
        out: set[NodeId] = set(x_all)
        for v in [u, *x_all]:
            for j in range(self._z_levels + 1):
                out.update(self._z_neighbors(v, j))
        return tuple(sorted(out))

    def _segment_members(self, u: NodeId, typ: str, i: int) -> Tuple[NodeId, ...]:
        if typ == "X":
            return self.scales.x_neighbors(u, i)
        return self.scales.y_neighbors(u, i)

    def _build_label(self, u: NodeId) -> NodeLabel:
        scales = self.scales
        row = np.asarray(self.metric.distances_from(u), dtype=float)
        size = SizeAccount()

        segments: Dict[Tuple[str, int], Tuple[float, ...]] = {}
        for i in range(scales.levels_n):
            for typ in ("X", "Y"):
                members = self._segment_members(u, typ, i)
                if members:
                    # One vectorized quantization per segment instead of a
                    # scalar codec call per member.
                    quantized = self.codec.roundtrip_many(
                        row[np.asarray(members, dtype=np.int64)]
                    )
                    segments[(typ, i)] = tuple(float(x) for x in quantized)
                else:
                    segments[(typ, i)] = ()
                size.add(
                    "neighbor_distances", len(members) * self.codec.bits_per_distance
                )

        # Per-level pointer maps (node -> its segment pointers at that
        # level); avoids a binary search per translation entry.
        pointer_maps: List[Dict[NodeId, List[SegmentPointer]]] = []
        for i in range(scales.levels_n):
            level_map: Dict[NodeId, List[SegmentPointer]] = {}
            for typ in ("X", "Y"):
                for idx, member in enumerate(self._segment_members(u, typ, i)):
                    level_map.setdefault(member, []).append((typ, i, idx))
            pointer_maps.append(level_map)

        zeta: Dict[int, Dict[Tuple[SegmentPointer, int], SegmentPointer]] = {}
        for i in range(scales.levels_n - 1):
            table: Dict[Tuple[SegmentPointer, int], SegmentPointer] = {}
            next_map = pointer_maps[i + 1]
            ptr_bits = self._pointer_bits(u, i) + self._pointer_bits(u, i + 1)
            for v, v_ptrs in pointer_maps[i].items():
                v_virtual = self._virtual_index[v]
                psi_bits = bits_for_count(len(self._virtual[v]))
                for w, w_ptrs in next_map.items():
                    psi = v_virtual.get(w)
                    if psi is None:
                        continue
                    for w_ptr in w_ptrs:
                        for v_ptr in v_ptrs:
                            table[(v_ptr, psi)] = w_ptr
                            size.add("translation_triples", ptr_bits + psi_bits)
            zeta[i] = table

        # Zooming sequence encoding.
        zoom = scales.zooming_sequence(u)
        y0_members = self._segment_members(u, "Y", 0)
        idx0 = int(np.searchsorted(y0_members, zoom[0]))
        if idx0 >= len(y0_members) or y0_members[idx0] != zoom[0]:
            raise RuntimeError(
                f"zooming anchor f_{u},0 not in the level-0 Y segment "
                "(ScaleStructure invariant violated)"
            )
        zoom0: SegmentPointer = ("Y", 0, idx0)
        size.add("zoom_anchor", bits_for_count(len(y0_members)))

        virtual_indices: List[Optional[int]] = [None]
        for i in range(1, scales.levels_n):
            prev = zoom[i - 1]
            psi = self._virtual_index[prev].get(zoom[i])
            # Claim 3.5(c): f_ui is a virtual neighbor of f_{u,i-1}.
            if psi is None:
                raise RuntimeError(
                    f"Claim 3.5(c) violated: f_({u},{i})={zoom[i]} is not a "
                    f"virtual neighbor of f_({u},{i-1})={prev}"
                )
            virtual_indices.append(psi)
            size.add("zoom_virtual_indices", bits_for_count(len(self._virtual[prev])))

        return NodeLabel(
            segments=segments,
            zeta=zeta,
            zoom0=zoom0,
            zoom_virtual_indices=tuple(virtual_indices),
            size=size,
        )

    def _pointer_bits(self, u: NodeId, i: int) -> int:
        """Bits for a level-i segment pointer: type flag + index."""
        longest = max(
            len(self._segment_members(u, "X", i)),
            len(self._segment_members(u, "Y", i)),
        )
        return 1 + bits_for_count(longest)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    _TYP_CODE = {"X": 0, "Y": 1}
    _TYP_NAME = ("X", "Y")

    def to_arrays(self) -> tuple:
        """(meta, arrays) inventory for the on-disk container.

        Labels flatten into CSR blocks: segment distances node-major by
        (level, type); translation triples as 5-column int rows
        ``[v_typ, v_idx, psi, w_typ, w_idx]`` (levels are implied — a
        level-i entry always maps a level-i pointer to a level-(i+1)
        one); zooming sequences as an anchor index plus a ψ matrix with
        -1 for "none".  Per-label :class:`SizeAccount` components go in
        a dense (n, categories) matrix so accounting survives reload.
        """
        n = self.metric.n
        levels_n = self.scales.levels_n
        seg_indptr = np.zeros(n * levels_n * 2 + 1, dtype=np.int64)
        seg_chunks: List[np.ndarray] = []
        zeta_indptr = np.zeros(n * max(0, levels_n - 1) + 1, dtype=np.int64)
        zeta_rows: List[List[int]] = []
        zoom0_idx = np.zeros(n, dtype=np.int64)
        zoom_psi = np.full((n, levels_n), -1, dtype=np.int64)
        categories = sorted(
            {cat for label in self.labels for cat in label.size.as_dict()}
        )
        cat_index = {cat: j for j, cat in enumerate(categories)}
        size_bits = np.zeros((n, len(categories)), dtype=np.int64)

        cursor = 0
        for u, label in enumerate(self.labels):
            for i in range(levels_n):
                for typ in ("X", "Y"):
                    seg = label.segments.get((typ, i), ())
                    seg_chunks.append(np.asarray(seg, dtype=np.float64))
                    cursor += 1
                    seg_indptr[cursor] = seg_indptr[cursor - 1] + len(seg)
            for i in range(levels_n - 1):
                slot = u * (levels_n - 1) + i
                table = label.zeta.get(i, {})
                for ((v_typ, _v_lvl, v_idx), psi), (
                    w_typ,
                    _w_lvl,
                    w_idx,
                ) in table.items():
                    zeta_rows.append(
                        [
                            self._TYP_CODE[v_typ],
                            v_idx,
                            psi,
                            self._TYP_CODE[w_typ],
                            w_idx,
                        ]
                    )
                zeta_indptr[slot + 1] = zeta_indptr[slot] + len(table)
            zoom0_idx[u] = label.zoom0[2]
            for i, psi in enumerate(label.zoom_virtual_indices):
                if psi is not None:
                    zoom_psi[u, i] = psi
            for cat, bits in label.size.as_dict().items():
                size_bits[u, cat_index[cat]] = bits

        meta = {
            "n": int(n),
            "delta": self.delta,
            "levels_n": int(levels_n),
            "size_categories": categories,
            "codec": {
                "min_distance": self.codec.min_distance,
                "max_distance": self.codec.max_distance,
                "mantissa_bits": self.codec.mantissa_bits,
            },
        }
        arrays = {
            "seg_indptr": seg_indptr,
            "seg_dist": np.concatenate(seg_chunks)
            if seg_chunks
            else np.empty(0, dtype=np.float64),
            "zeta_indptr": zeta_indptr,
            "zeta_data": np.asarray(zeta_rows, dtype=np.int64).reshape(
                len(zeta_rows), 5
            ),
            "zoom0_idx": zoom0_idx,
            "zoom_psi": zoom_psi,
            "size_bits": size_bits,
        }
        return meta, arrays

    @classmethod
    def from_arrays(cls, metric: MetricSpace, meta: dict, arrays: dict) -> "RingDLS":
        """Rehydrate from :meth:`to_arrays`.

        The result is *detached*: labels decode bit-for-bit (segments,
        translation maps, zooming sequences and size accounts are fully
        restored), while the construction-time scale structure and
        virtual-neighbor enumerations are not — only ``levels_n``
        survives, which is all the decoders consult.  The arrays are
        checked first (:func:`_check_arrays`).
        """
        codec_meta = meta["codec"]
        n = int(meta["n"])
        levels_n = int(meta["levels_n"])
        categories = list(meta["size_categories"])
        _check_arrays(n, levels_n, len(categories), arrays)

        dls = cls.__new__(cls)
        dls.metric = metric
        dls.delta = float(meta["delta"])
        dls.scales = _DetachedScales(levels_n)
        dls.codec = DistanceCodec(
            float(codec_meta["min_distance"]),
            float(codec_meta["max_distance"]),
            int(codec_meta["mantissa_bits"]),
        )
        dls._z_levels = None
        dls._virtual = None
        dls._virtual_index = None

        seg_indptr = np.asarray(arrays["seg_indptr"])
        seg_dist = np.asarray(arrays["seg_dist"])
        zeta_indptr = np.asarray(arrays["zeta_indptr"])
        zeta_data = np.asarray(arrays["zeta_data"])
        zoom0_idx = np.asarray(arrays["zoom0_idx"])
        zoom_psi = np.asarray(arrays["zoom_psi"])
        size_bits = np.asarray(arrays["size_bits"])

        labels: List[NodeLabel] = []
        cursor = 0
        for u in range(n):
            segments: Dict[Tuple[str, int], Tuple[float, ...]] = {}
            for i in range(levels_n):
                for typ in ("X", "Y"):
                    lo, hi = seg_indptr[cursor], seg_indptr[cursor + 1]
                    segments[(typ, i)] = tuple(float(x) for x in seg_dist[lo:hi])
                    cursor += 1
            zeta: Dict[int, Dict[Tuple[SegmentPointer, int], SegmentPointer]] = {}
            for i in range(levels_n - 1):
                slot = u * (levels_n - 1) + i
                lo, hi = int(zeta_indptr[slot]), int(zeta_indptr[slot + 1])
                table: Dict[Tuple[SegmentPointer, int], SegmentPointer] = {}
                for row in zeta_data[lo:hi]:
                    v_ptr = (cls._TYP_NAME[int(row[0])], i, int(row[1]))
                    w_ptr = (cls._TYP_NAME[int(row[3])], i + 1, int(row[4]))
                    table[(v_ptr, int(row[2]))] = w_ptr
                zeta[i] = table
            size = SizeAccount()
            for j, cat in enumerate(categories):
                bits = int(size_bits[u, j])
                if bits:
                    size.add(cat, bits)
            labels.append(
                NodeLabel(
                    segments=segments,
                    zeta=zeta,
                    zoom0=("Y", 0, int(zoom0_idx[u])),
                    zoom_virtual_indices=tuple(
                        None if psi < 0 else int(psi) for psi in zoom_psi[u]
                    ),
                    size=size,
                )
            )
        dls.labels = labels
        dls._decode_index = [None] * n
        return dls

    # ------------------------------------------------------------------
    # Decoding (labels only)
    # ------------------------------------------------------------------

    @staticmethod
    def _chain(
        label_a: NodeLabel, label_b: NodeLabel
    ) -> List[Tuple[SegmentPointer, SegmentPointer]]:
        """Identify label_a's zooming sequence inside both labels.

        Returns (pointer in a, pointer in b) pairs; stops at the first
        level either translation map returns null.
        """
        pairs: List[Tuple[SegmentPointer, SegmentPointer]] = []
        pa = label_a.zoom0
        pb = label_a.zoom0  # level-0 segments coincide across nodes
        typ, lvl, idx = pb
        if idx >= len(label_b.segments.get((typ, lvl), ())):
            return pairs
        pairs.append((pa, pb))
        for i in range(1, len(label_a.zoom_virtual_indices)):
            psi = label_a.zoom_virtual_indices[i]
            if psi is None:
                break
            table_a = label_a.zeta.get(i - 1, {})
            table_b = label_b.zeta.get(i - 1, {})
            next_a = table_a.get((pa, psi))
            next_b = table_b.get((pb, psi))
            if next_a is None or next_b is None:
                break
            pa, pb = next_a, next_b
            pairs.append((pa, pb))
        return pairs

    @staticmethod
    def _scan_common(
        label_u: NodeLabel,
        label_v: NodeLabel,
        f_u: SegmentPointer,
        f_v: SegmentPointer,
    ) -> List[Tuple[SegmentPointer, SegmentPointer]]:
        """Common neighbors found via translation entries keyed by f.

        Both labels hold entries ``((f, psi) -> w)`` exactly when w is a
        virtual neighbor of f that is also their own neighbor; a psi
        present on both sides identifies a *common* neighbor (psi indices
        refer to f's single, shared virtual enumeration).
        """
        level = f_u[1]
        table_u = label_u.zeta.get(level, {})
        table_v = label_v.zeta.get(level, {})
        by_psi_u = {
            psi: w_ptr for (ptr, psi), w_ptr in table_u.items() if ptr == f_u
        }
        out: List[Tuple[SegmentPointer, SegmentPointer]] = []
        for (ptr, psi), w_ptr_v in table_v.items():
            if ptr == f_v:
                w_ptr_u = by_psi_u.get(psi)
                if w_ptr_u is not None:
                    out.append((w_ptr_u, w_ptr_v))
        return out

    def estimate_from_labels(self, label_u: NodeLabel, label_v: NodeLabel) -> float:
        """D+ from two labels alone."""
        common: List[Tuple[SegmentPointer, SegmentPointer]] = []

        # Level-0 segments coincide globally: every member is common.
        for typ in ("X", "Y"):
            seg_u = label_u.segments.get((typ, 0), ())
            seg_v = label_v.segments.get((typ, 0), ())
            for idx in range(min(len(seg_u), len(seg_v))):
                common.append(((typ, 0, idx), (typ, 0, idx)))

        # Both zooming chains, identified in both labels.
        chain_u = self._chain(label_u, label_v)
        chain_v = [(pu, pv) for (pv, pu) in self._chain(label_v, label_u)]
        common.extend(chain_u)
        common.extend(chain_v)

        # Harvest extra common neighbors through each identified f.
        for f_u, f_v in list(chain_u) + list(chain_v):
            common.extend(self._scan_common(label_u, label_v, f_u, f_v))

        best = float("inf")
        for ptr_u, ptr_v in common:
            best = min(best, label_u.distance_at(ptr_u) + label_v.distance_at(ptr_v))
        return best

    def estimate(self, u: NodeId, v: NodeId) -> float:
        """Distance estimate for a node pair via their labels."""
        u, v = as_node_pair(u, v, self.metric.n)
        if u == v:
            return 0.0
        return self.estimate_from_labels(self.labels[u], self.labels[v])

    # -- batched estimation --------------------------------------------

    def _index_of(self, u: NodeId) -> tuple:
        """u's decode index: per-level ``ptr -> {psi: (w_ptr, d_w)}``
        maps (ζ keyed by source pointer, so the common-neighbor harvest
        intersects two small dicts instead of scanning whole tables) plus
        the level-0 segment distances as arrays."""
        cached = self._decode_index[u]
        if cached is None:
            label = self.labels[u]
            by_ptr: List[Dict[SegmentPointer, Dict[int, tuple]]] = []
            for i in range(self.scales.levels_n - 1):
                level_map: Dict[SegmentPointer, Dict[int, tuple]] = {}
                for (ptr, psi), w_ptr in label.zeta.get(i, {}).items():
                    level_map.setdefault(ptr, {})[psi] = (
                        w_ptr,
                        label.distance_at(w_ptr),
                    )
                by_ptr.append(level_map)
            seg0 = {
                typ: np.asarray(label.segments.get((typ, 0), ()), dtype=float)
                for typ in ("X", "Y")
            }
            cached = (by_ptr, seg0)
            self._decode_index[u] = cached
        return cached

    def _chain_indexed(self, label_a: NodeLabel, by_ptr_a, label_b: NodeLabel,
                       by_ptr_b) -> List[Tuple[SegmentPointer, SegmentPointer]]:
        """:meth:`_chain` over the decode indexes (same pairs, O(1) steps)."""
        pairs: List[Tuple[SegmentPointer, SegmentPointer]] = []
        pa = pb = label_a.zoom0  # level-0 segments coincide across nodes
        typ, lvl, idx = pb
        if idx >= len(label_b.segments.get((typ, lvl), ())):
            return pairs
        pairs.append((pa, pb))
        for i in range(1, len(label_a.zoom_virtual_indices)):
            psi = label_a.zoom_virtual_indices[i]
            if psi is None or i - 1 >= len(by_ptr_a):
                break
            entry_a = by_ptr_a[i - 1].get(pa, {}).get(psi)
            entry_b = by_ptr_b[i - 1].get(pb, {}).get(psi)
            if entry_a is None or entry_b is None:
                break
            pa, pb = entry_a[0], entry_b[0]
            pairs.append((pa, pb))
        return pairs

    def _estimate_indexed(self, u: NodeId, v: NodeId) -> float:
        """:meth:`estimate` over the decode indexes — the identical
        candidate set (level-0 members, both chains, the ζ harvest), so
        the minimum matches the per-pair decoder bit for bit."""
        label_u, label_v = self.labels[u], self.labels[v]
        by_ptr_u, seg0_u = self._index_of(u)
        by_ptr_v, seg0_v = self._index_of(v)
        best = float("inf")
        for typ in ("X", "Y"):
            a, b = seg0_u[typ], seg0_v[typ]
            m = min(a.size, b.size)
            if m:
                best = min(best, float((a[:m] + b[:m]).min()))
        chain_u = self._chain_indexed(label_u, by_ptr_u, label_v, by_ptr_v)
        chain_v = [
            (pu, pv)
            for (pv, pu) in self._chain_indexed(label_v, by_ptr_v, label_u, by_ptr_u)
        ]
        for f_u, f_v in chain_u + chain_v:
            best = min(best, label_u.distance_at(f_u) + label_v.distance_at(f_v))
            level = f_u[1]
            if level >= len(by_ptr_u):
                continue
            map_u = by_ptr_u[level].get(f_u, {})
            map_v = by_ptr_v[level].get(f_v, {})
            if not map_u or not map_v:
                continue
            if len(map_v) < len(map_u):
                map_u, map_v = map_v, map_u
            for psi, (_w_ptr, d_small) in map_u.items():
                other = map_v.get(psi)
                if other is not None:
                    best = min(best, d_small + other[1])
        return best

    def estimate_many(self, us, vs) -> np.ndarray:
        """Batched estimates via the per-node decode indexes.

        The ζ harvest dominates per-pair decoding; reorganizing each
        label's translation tables by source pointer (once, lazily) turns
        it from a full-table scan into a small-dict intersection, which
        is what makes :func:`repro.engine.bulk_estimates` fast for the
        paper's own labeling scheme.
        """
        us, vs = as_node_pairs(us, vs, self.metric.n)
        out = np.empty(us.shape[0], dtype=float)
        for i in range(us.shape[0]):
            u, v = int(us[i]), int(vs[i])
            out[i] = 0.0 if u == v else self._estimate_indexed(u, v)
        return out

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def label_bits(self, u: NodeId) -> SizeAccount:
        return self.labels[u].size

    def max_label_bits(self) -> int:
        return max(label.size.total_bits for label in self.labels)

    def mean_label_bits(self) -> float:
        return float(np.mean([label.size.total_bits for label in self.labels]))

    def max_virtual_neighbors(self) -> int:
        """max_u |T_u| — the paper bounds it by O_{α,δ}(log n · log Δ)."""
        if self._virtual is None:
            raise RuntimeError(
                "virtual-neighbor enumerations are construction-time state "
                "and are not persisted; unavailable on a loaded structure"
            )
        return max(len(t) for t in self._virtual)

    # ------------------------------------------------------------------
    # Simulation/test helpers (not part of the decoding protocol)
    # ------------------------------------------------------------------

    def _segment_node_for_test(self, u: NodeId, ptr: SegmentPointer) -> NodeId:
        """Resolve a segment pointer of u back to the physical node.

        Only tests and the Theorem 4.2 simulator use this — the decoding
        protocol itself never converts pointers to global ids.
        """
        typ, level, idx = ptr
        return self._segment_members(u, typ, level)[idx]
