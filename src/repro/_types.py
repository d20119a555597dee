"""Shared type aliases for the :mod:`repro` package.

Nodes of every metric space and graph in this library are identified by
dense integer ids in ``[0, n)``.  Keeping the alias in one module makes the
intent of signatures such as ``def distance(self, u: NodeId, v: NodeId)``
explicit without pulling in heavyweight typing machinery.
:func:`as_node_pairs` is the one check that a batch of node pairs
honours that contract (:func:`as_node_pair` applies it to one pair).
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence, Tuple, Union

import numpy as np

#: Identifier of a node in a metric space or graph: a dense int in ``[0, n)``.
NodeId = int

#: Anything accepted where a collection of node ids is expected.
NodeIds = Union[Sequence[int], np.ndarray]

#: A non-negative edge weight / distance.
Distance = float


_BOOL_TYPES = frozenset({bool, np.bool_})


def integer_ids(ids, what: str = "node") -> np.ndarray:
    """``ids`` (a scalar, a sequence or nested sequences) as an int64 array.

    Raises :class:`ValueError`, calling them ``what`` ids, when an id is
    not an integer: a float or a bool would otherwise be truncated to
    another node (``1.9`` and ``True`` both to node 1).  NumPy infers a
    float or bool dtype for those, except for bools mixed into ints,
    which it infers as int; a Python sequence is therefore also checked
    element by element.
    """
    arr = np.asarray(ids)
    if arr.size and (arr.dtype.kind not in "iu" or _holds_bools(ids, arr)):
        raise ValueError(
            f"{what} ids must be integers, not bools or floats: "
            f"{np.asarray(ids, dtype=object).ravel()[:8].tolist()}"
        )
    return arr.astype(np.int64, copy=False)


def integer_field(value, field: str, ndim: int = 0):
    """A count or seed field (``ndim=0``) or a list of them (``ndim=1``)
    as a Python int or list of ints.

    The value is read by :func:`integer_ids`, so a bool, a float or a
    string raises :class:`ValueError` (naming ``field``) instead of being
    truncated: ``"n": 10.7`` would otherwise load as 10 and ``true`` as 1.
    """
    try:
        arr = integer_ids(value, field)
    except ValueError:
        arr = None
    if arr is None or arr.ndim != ndim:
        kind = "an integer" if ndim == 0 else "a list of integers"
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return arr.tolist()


def _holds_bools(ids, arr: np.ndarray) -> bool:
    """Whether the sequence ``ids``, read by NumPy as the int array
    ``arr``, holds a bool.  Read as an int a bool is 0 or 1, so only an
    array with such a value needs the element scan."""
    if isinstance(ids, np.ndarray) or arr.ndim == 0 or not (arr <= 1).any():
        return False
    flat = ids
    for _ in range(arr.ndim - 1):
        flat = chain.from_iterable(flat)
    return not _BOOL_TYPES.isdisjoint(map(type, flat))


def as_node_pairs(us, vs, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """A pair batch ``(us, vs)`` as two equal-length 1-D int64 arrays.

    Raises :class:`ValueError` when an id is not an integer (see
    :func:`integer_ids`), an id lies outside ``[0, n)`` (a negative one
    would otherwise wrap around to another node), or the two sides differ
    in length (they would otherwise broadcast).
    """
    us = integer_ids(us).ravel()
    vs = integer_ids(vs).ravel()
    if us.shape != vs.shape:
        raise ValueError(
            f"pair batch sides differ in length: {us.size} != {vs.size}"
        )
    for side in (us, vs):
        if side.size and (side.min() < 0 or side.max() >= n):
            bad = side[(side < 0) | (side >= n)]
            raise ValueError(f"node ids out of range [0, {n}): {bad.tolist()}")
    return us, vs


def as_node_pair(u, v, n: int) -> Tuple[int, int]:
    """One node pair, checked by :func:`as_node_pairs`, as two ints."""
    if type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n:
        return u, v  # what as_node_pairs would return, without the arrays
    us, vs = as_node_pairs(u, v, n)
    if us.size != 1:
        raise ValueError(f"expected one node pair, got {us.size}")
    return int(us[0]), int(vs[0])
