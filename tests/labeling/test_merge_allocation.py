"""A Theorem 3.2 merge commits membership; it copies no label block.

On a label scheme every churn read comes from the pristine block, so a
merge only commits the membership snapshot and the merged copy waits for
a reader that asks for it.  Each auto-merging update after the first
(which builds the patch's inverted index) is traced with ``tracemalloc``
on hypercube n=200, where labels hold nearly all 200 nodes: its peak must
stay under an eighth of the label block's ids plus distances (640 KB).
A merge that filtered the block into fresh arrays would allocate all of
it.
"""

from __future__ import annotations

import tracemalloc

from repro import api

N = 200


def test_merging_update_allocates_no_label_block():
    fitted = api.build("triangulation", "hypercube", n=N, seed=0,
                       cache=api.BuildCache())
    tri = fitted.inner
    block = tri._ids.nbytes + tri._dist.nbytes
    assert block > 600_000  # labels hold nearly every node
    batches = [{"leaves": [3]}, {"leaves": [11, 40]}, {"joins": [3]},
               {"joins": [40], "leaves": [150]}, {"joins": [11, 150]},
               {"leaves": [0, 199]}, {"joins": [0]}]
    assert api.update(fitted, **batches[0]).merged
    peaks = []
    for batch in batches[1:]:
        tracemalloc.start()
        try:
            receipt = api.update(fitted, **batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert receipt.merged, batch
    assert max(peaks) < block / 8, peaks
