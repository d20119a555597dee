"""Theorem 3.2's construction pinned by golden digests.

Each triangulation digest is a sha256 over every packing level's balls
(centre, radius, members, measure), every per-scale X_i and Y_i set and
zooming sequence, and the triangulation's label CSR.  Together the
workloads cover labels that are whole rows (hypercube, knn-graph,
internet), partial labels whose X and Y sets differ (expline, about
0.19·n), integer distances that tie in covers and masses (grid), and
the lazy graph metric.  A non-uniform measure, and the two other
consumers of the scale structure (Theorem 3.4's labels and Theorem
4.2's routing), are pinned the same way.  The digests were recorded on
the per-ball construction that preceded the count-based one; floats are
hashed by their exact bits.  Theorem 3.4's labels were then per-node
objects; they now live only in their container arrays, so the two
digests over them feed the canonical text of those objects rebuilt from
the arrays (:func:`_node_labels`).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import api
from repro.bits import SizeAccount
from repro.metrics.measure import doubling_measure
from repro.metrics.packing import eps_mu_packing

DELTA = 0.3

#: workload -> (n, generator parameters, sha256 of :func:`_scales_digest`)
TRIANGULATION = {
    "hypercube": (300, {}, "7e311de2fb2bb351dc6d9cbbe3fbc98c511310ad626bceb11e0989f76435443b"),
    "expline": (128, {}, "0be79be1e22aff00cd085f12938825242b681be97e9f76b10580542f34fe0d6a"),
    "grid": (256, {}, "4e57a683b0ecc4101e1c655882487aad68f783ce269a523ae27eeda4a1b9bd85"),
    "knn-graph": (200, {"dense": False},
                  "36f0c95cf6bff3cdf0da661e06ab9423b3a38be844d7e072233e6e1558b20f0e"),
    "internet": (200, {}, "9f4f81bb1132755398a4e05b0baabd67462043c88d7433360ff5cd9b44950138"),
}

#: sha256 of the (2^-i, µ)-packings under a doubling measure
DOUBLING_PACKINGS = "7fad1c63beef79c32d5dda86270b769bca9d88f34d138096e6143257cba674fb"
#: sha256 of RingDLS's labels on hypercube n=64
DLS_LABELS = "5761271bc453c04a9de21ee1485da87e3b8a6c508c4623e65c6bb378d98437a1"
#: sha256 of route-thm4.2's labels, mode-M2 tables and routes on gap-path n=64
TWOMODE = "cd759ccd599cef3f4d651850e8c67ecc38687331c3ccc5d2d019532f917e3fc8"


def _canon(value) -> str:
    """A canonical text form: exact float bits, sorted dict items."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in items) + "}"
    if dataclasses.is_dataclass(value):
        fields = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
        return type(value).__name__ + _canon(dict(fields))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _feed_packings(digest, packings) -> None:
    for level, packing in enumerate(packings):
        digest.update(f"level {level} eps {packing.eps.hex()}\n".encode())
        for ball in packing.balls:
            digest.update((_canon(ball) + "\n").encode())


def _scales_digest(name: str, n: int, params: dict) -> str:
    fitted = api.build("triangulation", name, n=n, seed=0, delta=DELTA,
                       cache=api.BuildCache(), **params)
    tri = fitted.inner
    scales = tri.scales
    digest = hashlib.sha256()
    _feed_packings(digest, scales.packings)
    for u in range(n):
        for i in range(scales.levels_n):
            for ids in (scales.x_neighbors(u, i), scales.y_neighbors(u, i)):
                digest.update(np.asarray([len(ids), *ids], dtype=np.int64).tobytes())
        digest.update(np.asarray(scales.zooming_sequence(u), dtype=np.int64).tobytes())
    _, arrays = tri.to_arrays()
    for key, dtype in (("label_indptr", np.int64), ("label_ids", np.int64),
                       ("label_dist", np.float64)):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(arrays[key], dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TRIANGULATION))
def test_triangulation_construction(name):
    n, params, golden = TRIANGULATION[name]
    assert _scales_digest(name, n, params) == golden


def test_packings_under_a_doubling_measure():
    metric = api.build("triangulation", "hypercube", n=128, seed=0, delta=DELTA,
                       cache=api.BuildCache()).inner.metric
    mu = doubling_measure(metric)
    assert np.ptp(mu.weights) > 0  # the non-uniform path
    digest = hashlib.sha256()
    _feed_packings(digest, [eps_mu_packing(metric, 2.0**-i, mu=mu) for i in range(7)])
    assert digest.hexdigest() == DOUBLING_PACKINGS


def _zeta_bytes(zeta) -> bytes:
    """The translation tables as sorted int64 rows ``(i, v_ptr, psi, w_ptr)``
    with segment types coded X=0, Y=1 (a million entries on hypercube 64)."""
    code = {"X": 0, "Y": 1}
    rows = [
        (i, code[vt], vl, vx, psi, code[wt], wl, wx)
        for i, table in zeta.items()
        for ((vt, vl, vx), psi), (wt, wl, wx) in table.items()
    ]
    table = np.array(rows, dtype=np.int64).reshape(-1, 8)
    return table[np.lexsort(table.T[::-1])].tobytes()


@dataclasses.dataclass
class NodeLabel:
    """The per-node label object the digests were recorded on:
    ``segments[(typ, i)]`` holds a segment's distances, ``zeta[i]`` maps
    ``((typ, i, idx), psi)`` to ``(typ, i + 1, idx)``."""

    segments: dict
    zeta: dict
    zoom0: tuple
    zoom_virtual_indices: tuple
    size: SizeAccount


@dataclasses.dataclass
class TwoModeLabel:
    """Theorem 4.2's routing label as recorded, with its NodeLabel."""

    node: int
    base: NodeLabel
    friends: list
    extra_bits: int


def _node_labels(dls) -> list:
    """Every node's :class:`NodeLabel`, rebuilt from ``dls.to_arrays()``."""
    meta, arrays = dls.to_arrays()
    levels_n, typ = meta["levels_n"], ("X", "Y")
    seg_indptr, seg_dist = arrays["seg_indptr"], arrays["seg_dist"]
    zeta_indptr, zeta_data = arrays["zeta_indptr"], arrays["zeta_data"]
    labels = []
    for u in range(meta["n"]):
        segments = {}
        for i in range(levels_n):
            for t in (0, 1):
                row = (u * levels_n + i) * 2 + t
                segments[(typ[t], i)] = tuple(seg_dist[seg_indptr[row] : seg_indptr[row + 1]].tolist())
        zeta = {}
        for i in range(levels_n - 1):
            slot = u * (levels_n - 1) + i
            rows = zeta_data[zeta_indptr[slot] : zeta_indptr[slot + 1]].tolist()
            zeta[i] = {((typ[vt], i, vx), psi): (typ[wt], i + 1, wx)
                       for vt, vx, psi, wt, wx in rows}
        psis = arrays["zoom_psi"][u].tolist()
        labels.append(NodeLabel(
            segments=segments,
            zeta=zeta,
            zoom0=("Y", 0, int(arrays["zoom0_idx"][u])),
            zoom_virtual_indices=tuple(None if psi < 0 else psi for psi in psis),
            size=dls.label_bits(u),
        ))
    return labels


def _virtual(dls) -> list:
    """Every node's virtual enumeration T_u as a tuple of ids."""
    return [tuple(int(w) for w in dls._t_members[dls._t_indptr[u] : dls._t_indptr[u + 1]])
            for u in range(dls.metric.n)]


def test_ring_dls_labels():
    dls = api.build("labels", "hypercube", n=64, seed=0, cache=api.BuildCache()).inner
    digest = hashlib.sha256()
    digest.update(_canon(_virtual(dls)).encode())
    for label in _node_labels(dls):
        digest.update((_canon(dataclasses.replace(label, zeta={})) + "\n").encode())
        digest.update(_zeta_bytes(label.zeta))
    assert digest.hexdigest() == DLS_LABELS


def test_two_mode_routing():
    scheme = api.build("route-thm4.2", "gap-path", n=64, seed=0, cache=api.BuildCache()).inner
    digest = hashlib.sha256()
    for label, base in zip(scheme.labels, _node_labels(scheme.dls)):
        label = TwoModeLabel(label.node, base, label.friends, label.extra_bits)
        digest.update((_canon(label) + "\n").encode())
    digest.update(_canon((scheme._m2_owner, scheme._anchor)).encode())
    for u in range(0, 64, 3):
        for v in range(64):
            if u != v:
                digest.update((_canon(scheme.route(u, v)) + "\n").encode())
    assert digest.hexdigest() == TWOMODE
