"""Committed ResultSets reproduce from the current tree.

A change that moves a value one of these suites reports must regenerate
its committed file (``repro run <suite>``) in the same change, so
``benchmarks/results/`` holds no stale artifact.  :meth:`ResultSet.diff`
compares metrics, non-timing probes and size accounts; timing probes and
cell timings differ from run to run and are skipped.
"""

from pathlib import Path

import pytest

from repro.api import BuildCache
from repro.experiments import ResultSet, get_suite, run

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@pytest.mark.parametrize("name", ["smoke", "netsim-smoke", "churn-stream-smoke", "netsim"])
def test_committed_result_set_reproduces(name):
    fresh = run(get_suite(name), processes=1, persist=False, cache=BuildCache())
    committed = ResultSet.load(RESULTS / f"{name}.resultset.json")
    assert committed.diff(fresh) == {"only_self": [], "only_other": [], "changed": {}}
