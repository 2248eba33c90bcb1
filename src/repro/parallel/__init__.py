"""Multi-process execution: parallel mining and batched estimation.

Two independent hot paths gain a worker-pool mode here, both opt-in and
both bit-identical to their serial counterparts:

* **Lattice construction** — the level-wise miner's dominant cost is
  counting candidate occurrences (the paper's Table 3), and counting is
  embarrassingly parallel within a level: each candidate's count is an
  exact integer computed independently of every other candidate.
  :class:`ParallelMiningPool` partitions each level's sorted candidate
  list across worker processes and merges the per-chunk ``Canon ->
  count`` maps back in candidate order (``mine_lattice(...,
  workers=N)`` / ``LatticeSummary.build(..., workers=N)``).
* **Batched estimation** — :meth:`repro.core.estimator.
  SelectivityEstimator.estimate_batch` estimates a whole workload in one
  call, letting the recursive/voting estimator reuse sub-twig
  selectivities across queries through one shared memo, and
  :func:`estimate_trees_parallel` fans large batches out over workers in
  deterministic chunks.

Serial remains the default everywhere (``workers=None``); ``workers=0``
means one worker per available core.  See ``docs/parallelism.md`` for
the worker model, the determinism argument, and when parallelism pays
off.  Both paths submit through the fault-tolerant retry engine
(:mod:`repro.resilience`) via :class:`PoolSupervisor` — see
``docs/robustness.md`` for crash/hang/retry semantics.
"""

from .batch import DEFAULT_CHUNKS_PER_WORKER, estimate_trees_parallel
from .mining import ParallelMiningPool
from .pool import PoolSupervisor, available_workers, chunked, resolve_workers

__all__ = [
    "ParallelMiningPool",
    "estimate_trees_parallel",
    "DEFAULT_CHUNKS_PER_WORKER",
    "PoolSupervisor",
    "available_workers",
    "chunked",
    "resolve_workers",
]
