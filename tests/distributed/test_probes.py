"""The §6 probes of the ``distributed`` suite reproduce the committed results.

The suite's hypercube cell runs the ``distributed-net`` and ``gossip-gap``
probes through :class:`repro.netsim.RoundAdapter`; every value must equal
the one in ``benchmarks/results/distributed.resultset.json``.
"""

from pathlib import Path

from repro.experiments.results import ResultSet
from repro.experiments.runner import run_cell
from repro.experiments.suites import SUITES

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_hypercube_cell_probes_match_committed_results():
    spec = SUITES.get("distributed").obj()
    cell = next(c for c in spec.cells() if "distributed-net" in c.probes)
    committed = ResultSet.load(RESULTS / "distributed.resultset.json")
    expected = next(r for r in committed.results if r.key == cell.key).probes
    assert set(cell.probes) == {"distributed-net", "gossip-gap"}
    assert run_cell(cell).probes == expected
