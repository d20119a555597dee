"""The node-id rule in :mod:`repro._types`.

Every read, churn batch and server request checks ids with
:func:`integer_ids` / :func:`as_node_pairs`: ids must be integers in
``[0, n)``.  A float or bool id is refused rather than truncated to
another node, and a negative one rather than wrapped around.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._types import as_node_pair, as_node_pairs, integer_ids


@pytest.mark.parametrize("ids, expected", [
    (5, [5]),
    (np.int32(5), [5]),
    ([0, 1, 2], [0, 1, 2]),
    ((4, 2), [4, 2]),
    ([[0, 1], [2, 3]], [0, 1, 2, 3]),
    # only 0 and 1 could be hidden bools; plain ints there still pass
    ([0, 1, 1, 0], [0, 1, 1, 0]),
    ([np.int64(2), np.int32(1)], [2, 1]),
    (np.array([3, 1], dtype=np.int16), [3, 1]),
    (np.arange(4, dtype=np.uint8), [0, 1, 2, 3]),
    ([], []),
])
def test_integer_ids_accepts_integers(ids, expected):
    arr = integer_ids(ids)
    assert arr.dtype == np.int64
    assert arr.ravel().tolist() == expected


@pytest.mark.parametrize("ids", [
    1.9,
    True,
    np.float64(3.0),
    np.bool_(False),
    [1.9, 2.7],
    [2, 3.0],
    [True, 2],
    [2, False],
    [np.bool_(True), 3],
    [[0, 1], [True, 2]],
    np.array([1.0, 2.0]),
    np.array([True, False]),
    ["3"],
    [None, 1],
])
def test_integer_ids_rejects_non_integers(ids):
    with pytest.raises(ValueError, match="node ids must be integers"):
        integer_ids(ids)


def test_integer_ids_names_the_ids_it_rejects():
    with pytest.raises(ValueError, match=r"leave ids must be integers.*1\.5"):
        integer_ids([3, 1.5], "leave")


class TestAsNodePairs:
    def test_flat_int64_sides(self):
        us, vs = as_node_pairs([[0], [3]], (1, np.int32(2)), 4)
        assert us.dtype == vs.dtype == np.int64
        assert us.tolist() == [0, 3] and vs.tolist() == [1, 2]

    def test_empty_batch(self):
        us, vs = as_node_pairs([], [], 4)
        assert us.shape == vs.shape == (0,)

    @pytest.mark.parametrize("us, vs, match", [
        ([-1], [0], "out of range"),
        ([0], [4], "out of range"),
        ([0, 1], [2], "differ in length"),
        ([1.9], [2], "integers"),
        ([1], [True], "integers"),
    ])
    def test_rejects(self, us, vs, match):
        with pytest.raises(ValueError, match=match):
            as_node_pairs(us, vs, 4)


class TestAsNodePair:
    @pytest.mark.parametrize("u, v", [(1, 2), (np.int64(1), np.int32(2))])
    def test_returns_plain_ints(self, u, v):
        got = as_node_pair(u, v, 4)
        assert got == (1, 2)
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("u, v, match", [
        (-1, 2, "out of range"),
        (4, 0, "out of range"),
        (1.9, 2, "integers"),
        (True, 2, "integers"),
        (1, np.bool_(False), "integers"),
        ([0, 1], [2, 3], "one node pair"),
    ])
    def test_rejects(self, u, v, match):
        with pytest.raises(ValueError, match=match):
            as_node_pair(u, v, 4)
