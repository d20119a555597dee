"""Meridian overlay maintenance under churn.

The applied side of §6: a deployed rings overlay must survive nodes
joining and leaving.  :class:`ChurnSimulation` runs epochs over a
:class:`~repro.meridian.rings.MeridianOverlay`:

* each epoch, a ``churn_rate`` fraction of nodes is replaced: leavers
  are scrubbed from every ring; joiners bootstrap their rings from a
  random sample (they don't get the full-metric ring quality);
* optionally, ``repair_probes`` random ring-maintenance probes per node
  per epoch re-fill decayed rings;
* closest-node search quality is measured every epoch.

The finding the benchmark records: without repair the search
approximation ratio decays with accumulated churn; modest repair
stabilizes it — the practical face of the theory/practice coverage gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._types import NodeId
from repro.distributed.simulator import Context, Message, RoundBasedProtocol
from repro.distributed.trace import ChurnTrace
from repro.meridian.rings import MeridianOverlay
from repro.meridian.search import closest_node_search
from repro.metrics.base import MetricSpace
from repro.rng import SeedLike, ensure_rng, rng_entropy


@dataclass
class EpochReport:
    """Quality snapshot after one epoch of churn."""

    epoch: int
    replaced_nodes: int
    mean_approximation: float
    exact_rate: float
    mean_ring_members: float


class ChurnSimulation:
    """Epoch-driven churn over a Meridian overlay."""

    def __init__(
        self,
        metric: MetricSpace,
        overlay: MeridianOverlay,
        churn_rate: float = 0.1,
        bootstrap_probes: int = 8,
        repair_probes: int = 0,
        seed: SeedLike = None,
        trace: Optional[ChurnTrace] = None,
    ) -> None:
        if not 0 <= churn_rate < 1:
            raise ValueError("churn_rate must be in [0, 1)")
        if trace is not None and trace.n != metric.n:
            raise ValueError(
                f"trace covers n={trace.n} nodes, metric has n={metric.n}"
            )
        self.metric = metric
        self.overlay = overlay
        self.churn_rate = churn_rate
        self.bootstrap_probes = bootstrap_probes
        self.repair_probes = repair_probes
        #: optional shared schedule; when set, epoch e replays
        #: ``trace.events[e]`` instead of drawing victims from the RNG
        self.trace = trace
        self.rng = ensure_rng(seed)
        #: resolved RNG entropy (reproducibility even for seed=None runs)
        self.resolved_seed = rng_entropy(self.rng)
        self.probes = 0
        # Cached id range: per-event "everyone but u" candidate sets are
        # vectorized deletes from this, never rebuilt Python lists.
        self._ids = np.arange(metric.n)
        # Trace mode tracks the live set so bootstrap/repair probes only
        # touch active peers; legacy replacement churn keeps all active.
        self._active = np.ones(metric.n, dtype=bool)

    def _others(self, u: NodeId) -> np.ndarray:
        """Active candidate peers for probes from ``u``."""
        cands = np.flatnonzero(self._active)
        return cands[cands != u]

    def _clear_rings(self, u: NodeId) -> None:
        """Drop all of u's outgoing ring entries (leave / rebootstrap)."""
        self.overlay.nodes[u].rings = {}

    # -- ring surgery ---------------------------------------------------------

    def _scrub_many(self, leavers: np.ndarray) -> None:
        """Remove a whole epoch's leavers from every ring of every node in
        one pass: one vectorized membership test per ring instead of a
        full overlay sweep per leaver (identical result — every victim is
        scrubbed before any rejoins happen)."""
        for node in self.overlay.nodes:
            for idx, members in list(node.rings.items()):
                if not members:
                    continue
                arr = np.asarray(members)
                keep = ~np.isin(arr, leavers)
                if not keep.all():
                    node.rings[idx] = tuple(int(v) for v in arr[keep])

    def _insert(self, u: NodeId, v: NodeId, distance: float) -> None:
        """File v into u's ring if capacity allows."""
        idx = self.overlay.ring_of_distance(distance)
        node = self.overlay.nodes[u]
        members = node.rings.get(idx, ())
        if v != u and v not in members and len(members) < self.overlay.nodes_per_ring:
            node.rings[idx] = tuple(sorted(members + (v,)))

    def _bootstrap(self, joiner: NodeId) -> None:
        """A (re)joining node probes a random sample to seed its rings,
        and announces itself to the probed nodes."""
        self._clear_rings(joiner)
        others = self._others(joiner)
        sample = self.rng.choice(
            others, size=min(self.bootstrap_probes, others.size), replace=False
        )
        row = self.metric.distances_from(joiner)
        for v in sample:
            v = int(v)
            self.probes += 1
            d = float(row[v])
            self._insert(joiner, v, d)
            self._insert(v, joiner, d)

    def _repair(self) -> None:
        """Random maintenance probes re-filling decayed rings."""
        for u in range(self.metric.n):
            if not self._active[u]:
                continue
            row = self.metric.distances_from(u)
            others = self._others(u)
            sample = self.rng.choice(
                others, size=min(self.repair_probes, others.size), replace=False
            )
            for v in sample:
                v = int(v)
                self.probes += 1
                self._insert(u, v, float(row[v]))

    # -- epochs ---------------------------------------------------------------

    def run_epoch(self, epoch: int, quality_queries: int = 60) -> EpochReport:
        n = self.metric.n
        if self.trace is not None:
            # Replay the shared schedule: scrub this epoch's leavers (and
            # drop their own rings — they are away, not replaced), then
            # bootstrap the cohort rejoining now.
            event = (
                self.trace.events[epoch]
                if epoch < len(self.trace.events)
                else None
            )
            leaves = tuple(event.leaves) if event is not None else ()
            joins = tuple(event.joins) if event is not None else ()
            replaced = len(leaves) + len(joins)
            # Joins before leaves — the order ChurnTrace.generate and
            # final_active() use (a node in both rejoins, then leaves).
            for v in joins:
                self._active[v] = True
                self._bootstrap(int(v))
            if leaves:
                self._scrub_many(np.asarray(leaves, dtype=np.int64))
                for v in leaves:
                    self._clear_rings(int(v))
                    self._active[v] = False
        else:
            replaced = max(0, int(round(self.churn_rate * n)))
            if replaced:
                victims = self.rng.choice(n, size=replaced, replace=False)
                self._scrub_many(victims)
                for v in victims:
                    self._bootstrap(int(v))
        if self.repair_probes:
            self._repair()

        # Quality probe pairs come from an engine plan: exactly
        # ``quality_queries`` distinct (start, target) pairs per epoch,
        # deterministic given the simulation's rng state.
        from repro.engine import UniformSamplePlan

        approximations: List[float] = []
        size = min(quality_queries, n * (n - 1))
        if size > 0:
            plan = UniformSamplePlan(size=size, seed=int(self.rng.integers(2**31)))
            for start, target in plan.pairs(n):
                result = closest_node_search(self.overlay, int(start), int(target))
                approximations.append(result.approximation)
        mean_members = float(
            np.mean([node.out_degree() for node in self.overlay.nodes])
        )
        return EpochReport(
            epoch=epoch,
            replaced_nodes=replaced,
            mean_approximation=(
                float(np.mean(approximations)) if approximations else float("nan")
            ),
            exact_rate=(
                float(np.mean([a == 1.0 for a in approximations]))
                if approximations
                else float("nan")
            ),
            mean_ring_members=mean_members,
        )

    def run(self, epochs: int, quality_queries: int = 60) -> List[EpochReport]:
        return [self.run_epoch(e, quality_queries) for e in range(epochs)]


class ChurnRoundProtocol(RoundBasedProtocol):
    """The churn simulation as a round-based protocol: one epoch per round.

    Puts the third §6 experiment on the same simulator surface as the
    gossip and r-net protocols, so the event-driven adapter
    (:class:`repro.netsim.RoundAdapter`) can drive it too.  The overlay
    and :class:`ChurnSimulation` are built in :meth:`initialize` from the
    context's metric and RNG — the epoch trace draws from the shared
    protocol stream, so equal seeds give identical reports.
    """

    def __init__(
        self,
        epochs: int = 4,
        churn_rate: float = 0.1,
        bootstrap_probes: int = 8,
        repair_probes: int = 0,
        quality_queries: int = 60,
        nodes_per_ring: int = 8,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be positive")
        self.epochs = epochs
        self.churn_rate = churn_rate
        self.bootstrap_probes = bootstrap_probes
        self.repair_probes = repair_probes
        self.quality_queries = quality_queries
        self.nodes_per_ring = nodes_per_ring
        self.reports: List[EpochReport] = []
        self.sim: "ChurnSimulation | None" = None
        self._epoch = 0

    def initialize(self, ctx: Context) -> None:
        overlay = MeridianOverlay(
            ctx._metric, nodes_per_ring=self.nodes_per_ring, seed=ctx.rng
        )
        self.sim = ChurnSimulation(
            ctx._metric,
            overlay,
            churn_rate=self.churn_rate,
            bootstrap_probes=self.bootstrap_probes,
            repair_probes=self.repair_probes,
            seed=ctx.rng,
        )
        self.reports = []
        self._epoch = 0

    def on_round(self, node: NodeId, inbox: List[Message], ctx: Context) -> None:
        # Epoch surgery is overlay-global; node 0 performs it for the
        # round and mirrors the simulation's probe count into the
        # context, so RunStats.probes reports the true probing cost.
        if node != 0 or self._epoch >= self.epochs:
            return
        report = self.sim.run_epoch(self._epoch, self.quality_queries)
        self.reports.append(report)
        self._epoch += 1
        ctx.probes = self.sim.probes

    def is_done(self, ctx: Context) -> bool:
        return self._epoch >= self.epochs
