"""The rings-of-neighbors builders.

Every builder returns one CSR :class:`~repro.core.packed.PackedRings`
block: one ring per (node, key), keyed by scale index.

* :func:`net_rings` — ``Y_uj = B_u(r_j) ∩ G_j`` (Theorem 2.1, 3.2, 4.1):
  deterministic, net-based; cardinality bounded by Lemma 1.4.
* :func:`cardinality_rings` — ``X_ui``: uniform samples from the smallest
  ball holding ``n/2^i`` nodes (Theorem 5.2).
* :func:`measure_rings` — samples w.r.t. a doubling measure from balls of
  exponentially growing radius (Theorem 5.2, 5.5).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.packed import PackedRings
from repro.metrics.base import MetricSpace
from repro.metrics.measure import DoublingMeasure
from repro.metrics.nets import NestedNets
from repro.rng import SeedLike, ensure_rng


def net_rings(
    metric: MetricSpace,
    nets: NestedNets,
    radius_for_level: Callable[[int], float],
    levels: Optional[Iterable[int]] = None,
    return_nearest: bool = False,
) -> Union[PackedRings, Tuple[PackedRings, Tuple[np.ndarray, np.ndarray]]]:
    """Deterministic rings ``Y_uj = B_u(radius_for_level(j)) ∩ G_j``.

    This is the Theorem 2.1 construction with ``radius_for_level(j) =
    4Δ/(δ 2^j)`` and the Theorem 4.1 construction with ``2^{j+2}/δ``.
    Members are in net order (the level's admission order).

    Every level comes from one pass over the nodes' distance rows
    (:meth:`~repro.metrics.nets.NestedNets.scan`), each row asked once.
    With ``return_nearest`` the same pass also gives each target's
    nearest member of every level (Theorem 2.1's zooming entries ``f_tj``)
    and its distance ``d(f_tj, t)`` read from f_tj's row, returned after
    the rings as ``(ids, dist)``, two ``(n, levels)`` arrays.
    """
    level_list = list(levels) if levels is not None else list(range(nets.levels))
    radii = [radius_for_level(j) for j in level_list]
    chunks, nearest = nets.scan(level_list, radii, nearest=return_nearest)
    rings = PackedRings.from_ring_chunks(
        metric, level_list,
        np.tile(np.asarray(radii, dtype=float), (metric.n, 1)), chunks,
        provenance={"builder": "net_rings", "levels": level_list},
    )
    return (rings, nearest) if return_nearest else rings


def cardinality_rings(
    metric: MetricSpace,
    samples_per_ring: int,
    levels: Optional[int] = None,
    seed: SeedLike = None,
) -> PackedRings:
    """X-type rings: for each i, uniform samples from ``B_ui`` (§5.1).

    ``B_ui`` is the smallest ball around u containing at least ``n/2^i``
    nodes; level count defaults to ``ceil(log2 n)``.  Sampling is with
    replacement, mirroring the paper ("select a node independently and
    uniformly at random from the ball B_ui; repeat c log n times"); members
    are deduplicated within a ring.
    """
    rng = ensure_rng(seed)
    n = metric.n
    if levels is None:
        levels = max(1, int(np.ceil(np.log2(n))))
    counts = np.ceil(n / np.exp2(np.arange(levels))).astype(int).clip(1, n)
    chunks: List[np.ndarray] = []
    all_radii = np.empty((n, levels))
    for u in range(n):
        row = metric.distances_from(u)
        # All level radii from one sorted row instead of `levels` rui calls.
        radii = np.sort(row)[counts - 1]
        all_radii[u] = radii
        for i in range(levels):
            members = np.flatnonzero(row <= radii[i])
            chosen = rng.choice(members, size=samples_per_ring, replace=True)
            chunks.append(np.unique(chosen))
    return PackedRings.from_ring_chunks(
        metric, list(range(levels)), all_radii, chunks,
        provenance={
            "builder": "cardinality_rings",
            "samples_per_ring": int(samples_per_ring),
            "seed": seed if isinstance(seed, (int, type(None))) else repr(seed),
        },
    )


def measure_rings(
    metric: MetricSpace,
    mu: DoublingMeasure,
    samples_per_ring: int,
    seed: SeedLike = None,
    base_radius: float = 1.0,
) -> PackedRings:
    """Y-type rings: µ-weighted samples from balls ``B_u(base * 2^j)`` (§5.1).

    One ring per distance scale ``j ∈ [log Δ]``; this is the Theorem 5.2(a)
    Y-neighbor construction and (with one sample) Theorem 5.5's long-range
    link distribution.
    """
    rng = ensure_rng(seed)
    levels = metric.log_aspect_ratio()
    n = metric.n
    chunks: List[np.ndarray] = []
    radii = np.tile(base_radius * np.exp2(np.arange(levels)), (n, 1))
    for u in range(n):
        for j in range(levels):
            chosen = mu.sample_from_ball(u, float(radii[u, j]), samples_per_ring, rng)
            chunks.append(np.unique(np.asarray(chosen, dtype=np.int64)))
    return PackedRings.from_ring_chunks(
        metric, list(range(levels)), radii, chunks,
        provenance={
            "builder": "measure_rings",
            "samples_per_ring": int(samples_per_ring),
            "base_radius": float(base_radius),
            "seed": seed if isinstance(seed, (int, type(None))) else repr(seed),
        },
    )
