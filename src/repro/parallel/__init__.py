"""Multi-process execution for batched estimation.

:meth:`repro.core.estimator.SelectivityEstimator.estimate_batch`
estimates a whole workload in one call, letting the recursive/voting
estimator reuse sub-twig selectivities across queries through one
shared memo, and :func:`estimate_trees_parallel` fans large batches out
over workers in deterministic chunks.  The fan-out is opt-in and
bit-identical to the serial batch.

Serial remains the default (``workers=None``); ``workers=0`` means one
worker per available core.  Lattice construction has no worker mode:
the level-wise miner is one process (``docs/parallelism.md`` gives the
measurements).  See ``docs/parallelism.md`` for the worker model and
the determinism argument.  Chunks submit through the fault-tolerant
retry engine (:mod:`repro.resilience`) via :class:`PoolSupervisor` —
see ``docs/robustness.md`` for crash/hang/retry semantics.
"""

from .batch import DEFAULT_CHUNKS_PER_WORKER, estimate_trees_parallel
from .pool import PoolSupervisor, available_workers, chunked, resolve_workers

__all__ = [
    "estimate_trees_parallel",
    "DEFAULT_CHUNKS_PER_WORKER",
    "PoolSupervisor",
    "available_workers",
    "chunked",
    "resolve_workers",
]
