"""Measurement helpers shared by the workloads: sample summaries, peak
memory, host context (calibration loop, CPU steal), CPU rotation and the
per-run outcome record."""

from __future__ import annotations

import contextlib
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: percentiles tried, highest first, when picking a sample list's tail
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(samples, better: str = "lower") -> Dict[str, Optional[float]]:
    """Median, tail and sample count of one sample list.

    The tail is the highest percentile of :data:`TAIL_LADDER` that still
    has at least ten samples beyond it; for a higher-is-better quantity
    (a rate) the tail sits on the low side, so ``p99`` reads the 1st
    percentile.
    """
    values = np.asarray(samples, dtype=float)
    n = int(values.size)
    out: Dict[str, Optional[float]] = {
        "median": float(np.median(values)) if n else None,
        "tail_q": None,
        "tail": None,
        "n": n,
    }
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            at = q if better == "lower" else 100.0 - q
            out["tail_q"] = q
            out["tail"] = float(np.percentile(values, at))
            break
    return out


def window_rates(stamps: List[float], units_per_item: float, window: int) -> List[float]:
    """Rates over consecutive non-overlapping windows of completion
    times: ``window * units_per_item / (stamp[k + window] - stamp[k])``.
    A median of window rates shrugs off a short stall that a whole-run
    mean would absorb."""
    rates = []
    for k in range(0, len(stamps) - window, window):
        span = stamps[k + window] - stamps[k]
        if span > 0:
            rates.append(window * units_per_item / span)
    return rates


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark for this process (Linux
    ``clear_refs`` value 5); without it the later read is the lifetime
    peak, which is still a valid upper bound."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_ticks() -> Optional[List[int]]:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return [int(x) for x in fields[1:9]]


def calibration_ms() -> float:
    """Best of three runs of a fixed NumPy plus pure-Python loop that
    touches no code of the program: how fast this host is right now."""
    values = np.linspace(0.0, 50.0, 200_000)
    best = float("inf")
    for _ in range(3):
        tick = time.perf_counter()
        for _ in range(5):
            np.sort(np.sin(values))
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - tick)
    return best * 1e3


#: seconds the measured thread stays on one CPU under :class:`CpuRotation`
ROTATE_EVERY_S = 0.05


class CpuRotation:
    """Moves the calling thread round the CPUs this process may use, to
    the next one every :data:`ROTATE_EVERY_S`, from a helper thread that
    sleeps in between.

    On a shared host each vCPU's speed follows what the host runs beside
    it: a fixed loop ran 1.6 times slower on one vCPU than on the other
    at the same moment, for seconds at a time.  The scheduler keeps a
    busy thread on one vCPU, so a run took that one vCPU's episodes;
    rotating samples every vCPU in turn.  A move costs the measured
    thread one migration (cold private caches) and a GIL hand-off.  With
    one CPU allowed, nothing moves.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.moves = 0
        self._stop = threading.Event()
        self._helper: Optional[threading.Thread] = None

    def _rotate(self, tid: int) -> None:
        k = 0
        while not self._stop.wait(ROTATE_EVERY_S):
            k = (k + 1) % len(self.cpus)
            os.sched_setaffinity(tid, {self.cpus[k]})
            self.moves += 1

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._helper = threading.Thread(
                target=self._rotate, args=(threading.get_native_id(),), daemon=True)
            self._helper.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._helper is not None:
            self._helper.join()
            os.sched_setaffinity(0, set(self.cpus))


class HostContext:
    """Calibration time at start and CPU steal share over the run."""

    def __init__(self) -> None:
        self._ticks0 = _cpu_ticks()
        self.calibration_ms = calibration_ms()

    def steal_share(self) -> Optional[float]:
        """Share of all CPU ticks the hypervisor stole since start
        (``None`` where ``/proc/stat`` is unreadable)."""
        now = _cpu_ticks()
        if self._ticks0 is None or now is None:
            return None
        delta = [b - a for a, b in zip(self._ticks0, now)]
        total = sum(delta)
        return delta[7] / total if total > 0 else 0.0


@dataclass
class Outcome:
    """What one execution of a workload measured and checked.

    ``metrics`` holds the end-to-end values; ``samples`` the raw lists
    behind each median (for the tail report); ``layer`` the per-layer
    values the workload measures itself (server counters, structure
    counters, busy shares).  ``attempted``/``failed`` count operations:
    a failure is an exception, an IVL violation or a wrong answer.
    ``mismatches`` names every wrong answer; any one fails the run.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, tuple] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    context: Dict[str, object] = field(default_factory=dict)

    def sample(self, name: str, values, better: str = "lower") -> float:
        """Record a sample list and return its median."""
        self.samples[name] = (list(values), better)
        return float(np.median(np.asarray(values, dtype=float)))

    def tails(self) -> Dict[str, dict]:
        return {
            name: summarize(values, better)
            for name, (values, better) in self.samples.items()
        }
