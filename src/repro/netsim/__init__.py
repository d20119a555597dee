"""Event-driven network simulation with fault injection.

The §6 protocols were developed on a synchronous, perfectly reliable
round model (:mod:`repro.distributed.simulator`).  Real overlays run on
networks that drop, delay, reorder, partition — and among participants
that lie.  This subpackage is the bridge:

* :mod:`~repro.netsim.engine` — a deterministic heapq event loop
  (``(time, seq)`` ordering; the whole simulation is a pure function of
  its seeds);
* :mod:`~repro.netsim.links` — pluggable per-message latency, loss and
  reordering jitter;
* :mod:`~repro.netsim.faults` — crash/restart schedules, partitions,
  Byzantine distance/membership liars;
* :mod:`~repro.netsim.network` — the fault-aware transport with total
  message accounting (sent = consumed + dropped + undelivered);
* :mod:`~repro.netsim.protocol` — the event-native protocol surface and
  the :class:`RoundAdapter`, the one executor of every
  :class:`~repro.distributed.simulator.RoundBasedProtocol` (on an ideal
  network it runs the synchronous round model, pinned by golden
  digests);
* :mod:`~repro.netsim.audit` — suffix-walk spot checks that catch ring
  table liars via per-prover overlap statistics;
* :mod:`~repro.netsim.scenarios` — named degradation scenarios and the
  :func:`measure_scenario` battery the experiment suites run.
"""

from repro.netsim.engine import Clock, EventLoop
from repro.netsim.links import (
    ConstantLatency,
    ExponentialLatency,
    LATENCIES,
    LatencyModel,
    LinkModel,
    UniformLatency,
    make_latency,
)
from repro.netsim.faults import Byzantine, Crash, FaultPlan, Partition
from repro.netsim.network import EventNetwork
from repro.netsim.protocol import EventDriver, EventProtocol, RoundAdapter
from repro.netsim.audit import RingAuditProtocol, run_audit, suffix_walk
from repro.netsim.scenarios import SCENARIOS, Scenario, measure_scenario

__all__ = [
    "Byzantine",
    "Clock",
    "ConstantLatency",
    "Crash",
    "EventDriver",
    "EventLoop",
    "EventNetwork",
    "EventProtocol",
    "ExponentialLatency",
    "FaultPlan",
    "LATENCIES",
    "LatencyModel",
    "LinkModel",
    "Partition",
    "RingAuditProtocol",
    "RoundAdapter",
    "SCENARIOS",
    "Scenario",
    "UniformLatency",
    "make_latency",
    "measure_scenario",
    "run_audit",
    "suffix_walk",
]
