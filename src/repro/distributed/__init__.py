"""Distributed construction and maintenance of rings of neighbors.

The paper's §6: "rings of neighbors can be used in a distributed system
as a layer that supports various applications … [but] rings that we can
define theoretically provide a much better coverage than the ones that we
know how to construct and maintain in a distributed fashion.  Bridging
this gap is an interesting open question."

This subpackage turns that discussion into runnable experiments:

* :mod:`~repro.distributed.simulator` — the round-based protocol
  surface (PODC model): per-node state, counted messages and distance
  probes.  :class:`repro.netsim.RoundAdapter` runs every protocol here,
  on an ideal or a degraded event network.
* :mod:`~repro.distributed.netproto` — Luby-style distributed r-net
  construction (the building block of every ring family), with validity
  verified against the centralized construction.
* :mod:`~repro.distributed.ringproto` — gossip-based ring discovery:
  nodes learn ring members from bootstrap peers; coverage vs rounds
  quantifies the §6 gap against the exact rings.
* :mod:`~repro.distributed.churn` — Meridian-style overlay maintenance
  under join/leave churn, measuring closest-node search quality decay
  and repair.
"""

from repro.distributed.simulator import (
    Context,
    Message,
    RoundBasedProtocol,
    RunStats,
)
from repro.distributed.netproto import DistributedNetProtocol
from repro.distributed.ringproto import GossipRingProtocol, ring_coverage
from repro.distributed.churn import ChurnRoundProtocol, ChurnSimulation
from repro.distributed.trace import ChurnEvent, ChurnTrace

__all__ = [
    "ChurnEvent",
    "ChurnTrace",
    "Context",
    "Message",
    "RoundBasedProtocol",
    "RunStats",
    "DistributedNetProtocol",
    "GossipRingProtocol",
    "ring_coverage",
    "ChurnRoundProtocol",
    "ChurnSimulation",
]
