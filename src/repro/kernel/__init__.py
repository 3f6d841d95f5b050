"""Vectorized evaluation kernel (NumPy-backed).

Every solver and heuristic in the library bottoms out in the same three
criteria formulas (Equations (3)-(6)): interval cycle-times, chain
latencies and enrolled-processor energies.  This package centralizes them
as a data-parallel *cost-model kernel*:

* :class:`EvaluationContext` -- precomputed per-application prefix-sum work
  arrays, data-size vectors and bandwidth tables for one ``(apps,
  platform)`` pair (memoized per problem instance via
  :meth:`~EvaluationContext.for_problem`), with O(1) ``work_sum`` /
  interval-size lookups, a vectorized
  :meth:`~EvaluationContext.evaluate` over whole mappings, incremental
  :meth:`~EvaluationContext.delta_evaluate` after local moves, and
  batched :meth:`~EvaluationContext.evaluate_many` over stacked
  candidate arrays;
* :mod:`repro.kernel.neighborhood` -- the array-native neighborhood
  engine: the whole local-search move set of a mapping generated as one
  :class:`CandidateBatch` of column arrays (scored wholesale by
  ``evaluate_many``), and
  :func:`split_candidates`, the split moves alone (one round of the
  split-the-bottleneck greedy);
* :mod:`repro.kernel.vectorized` -- whole-table builders (interval
  cycle-time matrices, latency segment costs, cheapest-feasible-mode energy
  tables) consumed by the dynamic-programming solvers.

The scalar reference implementations live in :mod:`repro.core.evaluation`
(``evaluate_scalar`` and friends); property tests assert the two paths
agree to within 1e-9 relative tolerance on random instances.
"""

from .context import BatchCriteria, EvaluationContext, attach_kernel_arrays
from .neighborhood import (
    CandidateBatch,
    generate_neighborhood,
    split_candidates,
)
from .vectorized import (
    interval_cycle_matrix,
    interval_energy_table,
    latency_segment_matrix,
    weighted_cycle_candidates,
)

__all__ = [
    "BatchCriteria",
    "CandidateBatch",
    "EvaluationContext",
    "attach_kernel_arrays",
    "generate_neighborhood",
    "interval_cycle_matrix",
    "interval_energy_table",
    "latency_segment_matrix",
    "split_candidates",
    "weighted_cycle_candidates",
]
