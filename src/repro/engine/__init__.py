"""The batched query engine: plans + vectorized evaluation drivers.

This layer sits between the structures (metrics, rings, schemes) and the
API facade: it is the only code that decides *which* node pairs an
evaluation touches (:mod:`repro.engine.plans`), and it runs the touch
loop with batched distance queries, one ``estimate_many`` call per
estimator, and NumPy aggregation (:mod:`repro.engine.evaluate`).
Exhaustive all-pairs evaluation and seed-deterministic sampling are the
same code path, so benchmarks scale from n = 10² (exact) to n = 10⁴⁺
(sampled) by swapping one plan object.  Every scheme's ``stats()`` is
its ``evaluate()`` on a :class:`UniformSamplePlan`.
"""

from repro.engine.evaluate import (
    EstimatorStats,
    evaluate_estimator,
    evaluate_routing,
)
from repro.engine.plans import (
    PLANS,
    AllPairsPlan,
    PlanLike,
    QueryPlan,
    StratifiedPlan,
    UniformSamplePlan,
    make_plan,
    resolve_pairs,
)

__all__ = [
    "AllPairsPlan",
    "EstimatorStats",
    "PLANS",
    "PlanLike",
    "QueryPlan",
    "StratifiedPlan",
    "UniformSamplePlan",
    "evaluate_estimator",
    "evaluate_routing",
    "make_plan",
    "resolve_pairs",
]
