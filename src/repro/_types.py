"""Shared type aliases for the :mod:`repro` package.

Nodes of every metric space and graph in this library are identified by
dense integer ids in ``[0, n)``.  Keeping the alias in one module makes the
intent of signatures such as ``def distance(self, u: NodeId, v: NodeId)``
explicit without pulling in heavyweight typing machinery.
:func:`as_node_pairs` is the one check that a batch of node pairs
honours that contract.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

#: Identifier of a node in a metric space or graph: a dense int in ``[0, n)``.
NodeId = int

#: Anything accepted where a collection of node ids is expected.
NodeIds = Union[Sequence[int], np.ndarray]

#: A non-negative edge weight / distance.
Distance = float


def as_node_pairs(us, vs, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """A pair batch ``(us, vs)`` as two equal-length 1-D int64 arrays.

    Raises :class:`ValueError` when the two sides differ in length (they
    would otherwise broadcast) or an id lies outside ``[0, n)`` (a
    negative one would otherwise wrap around to another node).
    """
    us = np.asarray(us, dtype=np.int64).ravel()
    vs = np.asarray(vs, dtype=np.int64).ravel()
    if us.shape != vs.shape:
        raise ValueError(
            f"pair batch sides differ in length: {us.size} != {vs.size}"
        )
    for side in (us, vs):
        if side.size and (side.min() < 0 or side.max() >= n):
            bad = side[(side < 0) | (side >= n)]
            raise ValueError(f"node ids out of range [0, {n}): {bad.tolist()}")
    return us, vs
