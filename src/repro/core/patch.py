"""Membership patch buffers over CSR-packed structures.

The paper's distributed protocols (§6) assume nodes join and leave
continuously, yet the packed structures in this repo were, until now,
build-once: any churn meant scrub-and-rebuild.  This module is the
incremental substrate. The design follows a *fixed-universe membership*
model:

* The metric universe (all ``n`` points) never changes — churn toggles
  an ``active`` boolean per node.  This matches §6's view of a host
  population with a known address space, and makes every derived state a
  pure function of ``(pristine structure, active set)`` — independent of
  the order in which joins/leaves arrived.
* A :class:`CSRPatch` wraps one CSR block (``indptr``, ``keys`` and any
  payload arrays aligned with ``keys``).  The pristine arrays are
  retained forever; rows overlapping pending churn are served from them
  masked by the live active set.  Append-only join/tombstone segments
  record what is pending; :meth:`CSRPatch.maybe_merge` folds them away
  when the merge policy (:func:`merge_due`) trips.  A merge only commits
  the membership snapshot: the *merged* block (pristine filtered to that
  snapshot) is derived from it on its first read and kept until the next
  merge, so a structure whose reads never consult it never copies it.
* Reads of inactive nodes raise :class:`InactiveNode`
  (:func:`require_active`); reads that overlap a pending patch are the
  ones the structures bracket with an IVL-style bound (Rinberg &
  Keidar): the served value must lie between the pre-merge and
  post-merge answers (:func:`ivl_violations`).

Nothing here knows about distances or rings — it is pure membership +
CSR bookkeeping, shared by the labeling and routing structures, which
take the merge policy, the inactive-read check, the IVL hull and the
:class:`PatchStats` snapshot from this module rather than restating them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._types import integer_ids

__all__ = [
    "InactiveNode",
    "Membership",
    "CSRPatch",
    "PatchStats",
    "MERGE_DIRTY_FRACTION",
    "MERGE_STALENESS",
    "merge_due",
    "require_active",
    "ivl_violations",
    "patch_stats",
]

#: A CSR block: ``(indptr, keys, payloads)``.
_Block = Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]

#: Merge policy: fold pending churn once this share of rows is dirty ...
MERGE_DIRTY_FRACTION = 0.5
#: ... or once this many updates arrived since the last merge.
MERGE_STALENESS = 128


class InactiveNode(LookupError):
    """A read or update referenced a node that is not currently active."""


def _as_ids(nodes: Iterable[int], what: str, universe: int) -> np.ndarray:
    """One side of a churn batch as sorted unique ids, validated: every
    id an integer (not a bool, not a float) inside ``[0, universe)``."""
    arr = np.unique(integer_ids(list(nodes), what))
    if arr.size and (arr[0] < 0 or arr[-1] >= universe):
        raise ValueError(
            f"{what} ids out of range [0, {universe}): "
            f"{arr[(arr < 0) | (arr >= universe)].tolist()}"
        )
    return arr


@dataclass(frozen=True)
class PatchStats:
    """A snapshot of a patch buffer's pending state (JSON-friendly)."""

    universe: int
    active_nodes: int
    rows: int
    dirty_rows: int
    pending_joins: int
    pending_leaves: int
    updates: int
    updates_since_merge: int
    merges: int
    auto_merges: int

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class Membership:
    """The active set over a fixed node universe, with pending segments.

    ``active`` is the live membership; ``snapshot`` is the membership at
    the last merge.  The append-only ``join_segments`` / ``leave_segments``
    record the updates since that merge, in arrival order — they are what
    a merge folds away.
    """

    def __init__(self, universe: int) -> None:
        self.universe = int(universe)
        self.active = np.ones(self.universe, dtype=bool)
        self.snapshot = self.active.copy()
        self.join_segments: list = []
        self.leave_segments: list = []
        self.updates = 0
        self.updates_since_merge = 0
        self.merges = 0

    # -- queries --------------------------------------------------------

    @property
    def active_count(self) -> int:
        return int(self.active.sum())

    def is_active(self, u: int) -> bool:
        return bool(self.active[u])

    def active_ids(self) -> np.ndarray:
        return np.flatnonzero(self.active).astype(np.int64)

    def pending_ids(self) -> np.ndarray:
        """Every node whose membership changed since the last merge."""
        return np.flatnonzero(self.active != self.snapshot).astype(np.int64)

    def pending_joins(self) -> int:
        return int(np.sum(self.active & ~self.snapshot))

    def pending_leaves(self) -> int:
        return int(np.sum(~self.active & self.snapshot))

    def is_clean(self) -> bool:
        return not self.join_segments and not self.leave_segments

    # -- mutation -------------------------------------------------------

    def apply(
        self, joins: Iterable[int] = (), leaves: Iterable[int] = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Record one batch of joins and leaves (validated, then applied).

        Joins must currently be inactive, leaves active, and the two sets
        disjoint — the same node cannot both join and leave in one batch.
        Returns the normalized ``(joins, leaves)`` id arrays.
        """
        join_ids = _as_ids(joins, "join", self.universe)
        leave_ids = _as_ids(leaves, "leave", self.universe)
        both = np.intersect1d(join_ids, leave_ids)
        if both.size:
            raise ValueError(
                f"nodes cannot both join and leave in one update: {both.tolist()}"
            )
        already = join_ids[self.active[join_ids]] if join_ids.size else join_ids
        if already.size:
            raise InactiveNode(
                f"cannot join already-active node(s) {already.tolist()}"
            )
        gone = leave_ids[~self.active[leave_ids]] if leave_ids.size else leave_ids
        if gone.size:
            raise InactiveNode(
                f"cannot remove inactive node(s) {gone.tolist()}"
            )
        self.active[join_ids] = True
        self.active[leave_ids] = False
        if join_ids.size:
            self.join_segments.append(join_ids)
        if leave_ids.size:
            self.leave_segments.append(leave_ids)
        self.updates += 1
        self.updates_since_merge += 1
        return join_ids, leave_ids

    def commit(self) -> None:
        """Fold pending segments into the snapshot (called by a merge).
        The snapshot is replaced by a fresh array, never written into, so
        a caller may keep the committed one as the state of its merge."""
        self.snapshot = self.active.copy()
        self.join_segments = []
        self.leave_segments = []
        self.updates_since_merge = 0
        self.merges += 1


def merge_due(membership: Membership, dirty: int, rows: int) -> bool:
    """The merge policy: pending churn is folded once ``dirty / rows``
    reaches :data:`MERGE_DIRTY_FRACTION` or :data:`MERGE_STALENESS`
    updates arrived since the last merge.  The constants are read at
    call time, so patching them here changes every structure's policy."""
    if membership.is_clean():
        return False
    return (
        dirty / max(1, rows) >= MERGE_DIRTY_FRACTION
        or membership.updates_since_merge >= MERGE_STALENESS
    )


def require_active(membership: Optional[Membership], us, vs) -> None:
    """Reject a read of pairs ``(us, vs)`` (ids or aligned id arrays)
    that names an inactive node, with :class:`InactiveNode`.  A structure
    that has never been updated has no membership: every node is active."""
    if membership is None:
        return
    ids = np.concatenate((np.ravel(us), np.ravel(vs)))
    gone = ids[~membership.active[ids]]
    if gone.size:
        raise InactiveNode(f"node(s) {np.unique(gone).tolist()} are not active")


def ivl_violations(served, pre, post) -> int:
    """How many served values lie outside their IVL hull
    ``[min(pre, post) - tol, max(pre, post) + tol]``, where ``tol`` is
    ``1e-9 * max(1, |served|)`` for a finite value and 0 otherwise.  A NaN
    never lies inside, so it counts as a violation."""
    served = np.asarray(served, dtype=float)
    lo = np.minimum(pre, post)
    hi = np.maximum(pre, post)
    tol = np.where(
        np.isfinite(served), 1e-9 * np.maximum(1.0, np.abs(served)), 0.0
    )
    inside = (lo - tol <= served) & (served <= hi + tol)
    return int(inside.size - np.count_nonzero(inside))


def patch_stats(
    membership: Optional[Membership],
    universe: int,
    rows: int,
    dirty_rows: int = 0,
    auto_merges: int = 0,
) -> PatchStats:
    """The :class:`PatchStats` snapshot of a structure with ``rows`` rows.
    ``membership=None`` is a structure never updated: all ``universe``
    nodes active and nothing pending."""
    m = membership if membership is not None else Membership(universe)
    return PatchStats(
        universe=m.universe,
        active_nodes=m.active_count,
        rows=rows,
        dirty_rows=dirty_rows,
        pending_joins=m.pending_joins(),
        pending_leaves=m.pending_leaves(),
        updates=m.updates,
        updates_since_merge=m.updates_since_merge,
        merges=m.merges,
        auto_merges=auto_merges,
    )


class CSRPatch:
    """A patch buffer over one CSR block of node-id rows.

    The pristine ``(indptr, keys, payloads)`` arrays are never modified.
    Rows whose contents overlap pending churn are flagged dirty and
    served from the pristine arrays masked by the live active set
    (canonical order — identical to what a merge would produce).
    ``merged_*`` and :meth:`merged_row` read the pristine block filtered
    to the membership snapshot of the last merge; a merge keeps only that
    snapshot, and the filtered block is built on the first such read
    (never, for a structure that reads elsewhere) and cached until the
    next merge.  Before any merge it is the pristine block itself.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        keys: np.ndarray,
        payloads: Sequence[np.ndarray] = (),
        universe: Optional[int] = None,
        membership: Optional[Membership] = None,
    ) -> None:
        self.pristine_indptr = np.asarray(indptr, dtype=np.int64)
        self.pristine_keys = np.asarray(keys)
        self.pristine_payloads: Tuple[np.ndarray, ...] = tuple(
            np.asarray(p) for p in payloads
        )
        for p in self.pristine_payloads:
            if p.shape[0] != self.pristine_keys.shape[0]:
                raise ValueError(
                    "payload arrays must align with keys: "
                    f"{p.shape[0]} != {self.pristine_keys.shape[0]}"
                )
        if membership is None:
            if universe is None:
                universe = int(self.pristine_keys.max()) + 1 if self.pristine_keys.size else 0
            membership = Membership(universe)
        self.membership = membership
        self.rows = int(self.pristine_indptr.size - 1)
        # The membership snapshot of the last merge, and the block it
        # filters (None until its first read); before any merge, the
        # pristine block itself.
        self._snapshot: Optional[np.ndarray] = None
        self._merged: Optional[_Block] = (
            self.pristine_indptr, self.pristine_keys, self.pristine_payloads,
        )
        self._dirty = np.zeros(self.rows, dtype=bool)
        self.auto_merges = 0
        # Lazy inverted index over pristine keys: value -> rows holding it.
        self._inv_keys: Optional[np.ndarray] = None
        self._inv_rows: Optional[np.ndarray] = None

    # -- inverted index -------------------------------------------------

    def _ensure_index(self) -> None:
        if self._inv_keys is not None:
            return
        counts = np.diff(self.pristine_indptr)
        row_of = np.repeat(np.arange(self.rows, dtype=np.int64), counts)
        order = np.argsort(self.pristine_keys, kind="stable")
        self._inv_keys = np.asarray(self.pristine_keys)[order]
        self._inv_rows = row_of[order]

    def rows_containing(self, ids: np.ndarray) -> np.ndarray:
        """Every row whose pristine contents mention any of ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_index()
        lo = np.searchsorted(self._inv_keys, ids, side="left")
        hi = np.searchsorted(self._inv_keys, ids, side="right")
        hit = np.zeros(self.rows, dtype=bool)
        for a, b in zip(lo.tolist(), hi.tolist()):
            hit[self._inv_rows[a:b]] = True
        return np.flatnonzero(hit)

    # -- mutation -------------------------------------------------------

    def apply(
        self, joins: Iterable[int] = (), leaves: Iterable[int] = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply one membership batch and flag the rows it touches."""
        join_ids, leave_ids = self.membership.apply(joins, leaves)
        changed = np.concatenate([join_ids, leave_ids])
        if changed.size:
            self._dirty[self.rows_containing(changed)] = True
        return join_ids, leave_ids

    # -- reads ----------------------------------------------------------

    def row_dirty(self, r: int) -> bool:
        return bool(self._dirty[r])

    def rows_dirty(self, rows: np.ndarray) -> np.ndarray:
        return self._dirty[np.asarray(rows, dtype=np.int64)]

    @property
    def dirty_row_count(self) -> int:
        return int(self._dirty.sum())

    def filtered_row(self, r: int) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Row ``r`` served live: pristine contents masked by the active
        set, in canonical (pristine) order — bit-identical to what the
        next merge will produce for this row."""
        lo, hi = self.pristine_indptr[r], self.pristine_indptr[r + 1]
        keys = self.pristine_keys[lo:hi]
        mask = self.membership.active[keys]
        return keys[mask], tuple(p[lo:hi][mask] for p in self.pristine_payloads)

    def _merged_block(self) -> _Block:
        """The block as of the last merge, filtered on first use."""
        if self._merged is None:
            self._merged = self._filtered(self._snapshot)
        return self._merged

    @property
    def merged_indptr(self) -> np.ndarray:
        return self._merged_block()[0]

    @property
    def merged_keys(self) -> np.ndarray:
        return self._merged_block()[1]

    @property
    def merged_payloads(self) -> Tuple[np.ndarray, ...]:
        return self._merged_block()[2]

    def merged_row(self, r: int) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Row ``r`` as of the last merge (the pre-update IVL endpoint)."""
        indptr, keys, payloads = self._merged_block()
        lo, hi = indptr[r], indptr[r + 1]
        return keys[lo:hi], tuple(p[lo:hi] for p in payloads)

    # -- merging --------------------------------------------------------

    def live_arrays(self) -> _Block:
        """``(indptr, keys, payloads)`` of the block a merge would install
        now, computed without committing anything.

        Filters the *pristine* arrays by the live active set — never the
        previously-merged ones — so repeated leave/rejoin cycles always
        reconverge to the same canonical block.
        """
        return self._filtered(self.membership.active)

    def _filtered(self, active: np.ndarray) -> _Block:
        """The pristine block without the entries ``active`` marks False."""
        mask = active[self.pristine_keys]
        indptr = self.pristine_indptr
        # Kept entries per row, summed segment by segment (reduceat needs
        # the empty rows left out): no temporary the size of the block.
        counts = np.zeros(indptr.size - 1, dtype=np.int64)
        filled = np.flatnonzero(np.diff(indptr))
        if filled.size:
            counts[filled] = np.add.reduceat(mask, indptr[filled], dtype=np.int64)
        live_indptr = np.zeros(indptr.size, dtype=np.int64)
        np.cumsum(counts, out=live_indptr[1:])
        return (
            live_indptr,
            self.pristine_keys[mask],
            tuple(p[mask] for p in self.pristine_payloads),
        )

    def merge(self) -> None:
        """Fold pending churn: commit the membership and clear the dirty
        flags.  The merged block (:meth:`live_arrays` as of now) is built
        from the committed snapshot on its first read."""
        self._dirty[:] = False
        self.membership.commit()
        self._snapshot = self.membership.snapshot
        self._merged = None

    def maybe_merge(self) -> bool:
        """Merge when the merge policy (:func:`merge_due`) trips."""
        if not merge_due(self.membership, self.dirty_row_count, self.rows):
            return False
        self.merge()
        self.auto_merges += 1
        return True

    def is_clean(self) -> bool:
        return self.membership.is_clean()

    # -- reporting ------------------------------------------------------

    def stats(self) -> PatchStats:
        return patch_stats(
            self.membership, self.membership.universe, self.rows,
            self.dirty_row_count, self.auto_merges,
        )

    def __repr__(self) -> str:
        return (
            f"CSRPatch(rows={self.rows}, dirty={self.dirty_row_count}, "
            f"active={self.membership.active_count}/{self.membership.universe})"
        )
