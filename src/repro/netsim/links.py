"""Link models: per-message latency, loss and reordering jitter.

A :class:`LinkModel` owns its own :class:`numpy.random.Generator`
(seeded through :func:`repro.rng.ensure_rng`), so network randomness
never perturbs the protocol's RNG stream — the zero-latency parity
digests depend on that separation.

Latency distributions are pluggable (:data:`LATENCIES`); on top of the
sampled latency a link can add a uniform reordering ``jitter`` (two
messages sent in order may arrive swapped) and scale with the metric
distance of the endpoints (``distance_factor`` — the paper's metric *is*
round-trip time, so propagation proportional to d(u, v) is the natural
model).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from repro.rng import SeedLike, ensure_rng

__all__ = [
    "ConstantLatency",
    "ExponentialLatency",
    "LATENCIES",
    "LatencyModel",
    "LinkModel",
    "UniformLatency",
    "make_latency",
]


class LatencyModel(abc.ABC):
    """One-way propagation delay distribution for a message."""

    @abc.abstractmethod
    def sample(self, rng, u: int, v: int) -> float:
        """Draw one latency for a ``u → v`` message."""

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """JSON form (recorded in run provenance)."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units (default 0)."""

    def __init__(self, value: float = 0.0) -> None:
        if value < 0:
            raise ValueError("latency must be non-negative")
        self.value = float(value)

    def sample(self, rng, u: int, v: int) -> float:
        return self.value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "constant", "value": self.value}


class UniformLatency(LatencyModel):
    """Latency uniform in ``[lo, hi]``."""

    def __init__(self, lo: float, hi: float) -> None:
        if lo < 0 or hi < lo:
            raise ValueError("need 0 <= lo <= hi")
        self.lo, self.hi = float(lo), float(hi)

    def sample(self, rng, u: int, v: int) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


class ExponentialLatency(LatencyModel):
    """Exponential latency with the given mean (heavy queueing tail)."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        self.mean = float(mean)

    def sample(self, rng, u: int, v: int) -> float:
        return float(rng.exponential(self.mean))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "exponential", "mean": self.mean}


#: Registered latency kinds, keyed by the names scenarios reference.
LATENCIES = {
    "constant": ConstantLatency,
    "uniform": UniformLatency,
    "exponential": ExponentialLatency,
}


def make_latency(kind: str, **params: Any) -> LatencyModel:
    """Build a latency model by registered name."""
    try:
        cls = LATENCIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown latency kind {kind!r}; known: {sorted(LATENCIES)}"
        ) from None
    return cls(**params)


class LinkModel:
    """Per-message transit behaviour: loss, latency, reordering jitter.

    ``transit(u, v, distance)`` samples one traversal and returns the
    total delay, or ``None`` when the message is dropped.  The delay is

        ``latency.sample() + U(0, jitter) + distance_factor · d(u, v)``

    With the defaults (zero constant latency, no drop, no jitter) the
    model is the ideal network: nothing is drawn from the RNG and every
    message arrives instantly — the configuration under which a round
    run is the synchronous round model, bit for bit.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        drop_rate: float = 0.0,
        jitter: float = 0.0,
        distance_factor: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if jitter < 0 or distance_factor < 0:
            raise ValueError("jitter/distance_factor must be non-negative")
        self.latency = latency if latency is not None else ConstantLatency(0.0)
        self.drop_rate = float(drop_rate)
        self.jitter = float(jitter)
        self.distance_factor = float(distance_factor)
        self.rng = ensure_rng(seed)

    def transit(self, u: int, v: int, distance: float = 0.0) -> Optional[float]:
        """Sample one ``u → v`` traversal: delay, or None if dropped."""
        if self.drop_rate and self.rng.random() < self.drop_rate:
            return None
        delay = self.latency.sample(self.rng, u, v)
        if self.jitter:
            delay += float(self.rng.uniform(0.0, self.jitter))
        if self.distance_factor:
            delay += self.distance_factor * float(distance)
        return delay

    def to_dict(self) -> Dict[str, Any]:
        return {
            "latency": self.latency.to_dict(),
            "drop_rate": self.drop_rate,
            "jitter": self.jitter,
            "distance_factor": self.distance_factor,
        }
