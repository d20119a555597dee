"""The mutation extension of the Scheme protocol — streaming churn.

The paper's distributed constructions (§6) live with continuous joins
and leaves; the facade mirrors that with an *optional* extension of the
static :class:`~repro.api.schemes.Scheme` protocol:

* :class:`MutableScheme` — fitted schemes that additionally implement
  ``update(joins, leaves) -> UpdateReceipt``, ``pending_patch_stats()``
  and ``compact()``;
* :class:`UpdateReceipt` — the frozen, JSON-round-trippable record of
  one applied batch;
* :class:`UnsupportedUpdate` — the typed error static schemes raise
  (``api.update`` never leaks an ``AttributeError``).

Which registered schemes are mutable is their class's
``supports_update`` attribute, surfaced by ``repro list`` and
:func:`repro.api.supports_update`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Protocol, Tuple, runtime_checkable

__all__ = ["MutableScheme", "UnsupportedUpdate", "UpdateReceipt"]


class UnsupportedUpdate(TypeError):
    """The scheme does not implement the mutable (churn) extension."""


@dataclass(frozen=True)
class UpdateReceipt:
    """What one ``update(joins, leaves)`` call did, as a value object.

    ``revision`` is the structure's post-update revision counter — the
    same counter :class:`~repro.api.facade.BuildCache` re-keys on, so a
    receipt pins exactly which structure state answered later queries.
    """

    scheme: str
    joins: Tuple[int, ...]
    leaves: Tuple[int, ...]
    revision: int
    active_nodes: int
    pending_joins: int
    pending_leaves: int
    dirty_rows: int
    merged: bool
    update_s: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        out = asdict(self)
        out["joins"] = list(self.joins)
        out["leaves"] = list(self.leaves)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UpdateReceipt":
        data = dict(data)
        return cls(
            scheme=str(data["scheme"]),
            joins=tuple(int(x) for x in data["joins"]),
            leaves=tuple(int(x) for x in data["leaves"]),
            revision=int(data["revision"]),
            active_nodes=int(data["active_nodes"]),
            pending_joins=int(data["pending_joins"]),
            pending_leaves=int(data["pending_leaves"]),
            dirty_rows=int(data["dirty_rows"]),
            merged=bool(data["merged"]),
            update_s=float(data["update_s"]),
        )


@runtime_checkable
class MutableScheme(Protocol):
    """The optional churn extension of ``Scheme`` (structural typing)."""

    supports_update: bool

    def update(self, joins=(), leaves=()) -> UpdateReceipt:
        """Apply one join/leave batch; returns the receipt."""
        ...

    def pending_patch_stats(self):
        """A :class:`~repro.core.patch.PatchStats` for the pending patch."""
        ...

    def compact(self):
        """Force-merge pending churn, leaving nothing pending."""
        ...
