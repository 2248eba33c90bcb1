"""Chunked multi-process fan-out for batched estimation.

The estimator object is pickled to each worker once (through the pool
initializer — estimators are small: a summary reference plus
configuration).  Queries are coerced once in the parent, so a keyed
estimator's chunks carry canonical keys (a baseline's carry trees), and
each chunk runs through the estimator's own batch hook, so per-chunk
behaviour (including the recursive estimator's shared cross-query memo)
matches the serial batch path.  Chunk results are concatenated in submission order; estimates
are pure functions of ``(estimator, query)``, so the fan-out returns
exactly what ``[estimator.estimate(q) for q in queries]`` would.

Every submission goes through the retry engine
(:func:`repro.resilience.runner.run_chunks`): a worker crash
(``BrokenProcessPool``), a hung worker (per-attempt timeout), or a
payload that fails to pickle charges the affected chunks' retry budget,
the pool is rebuilt, and only the chunks that never produced a result
are re-submitted.  With the default budget (``RetryPolicy.none()``)
nothing is retried, but failures still surface as a chained
:class:`~repro.resilience.retry.ChunkFailureError` naming the failing
chunk instead of a raw executor internal.  When a caller-supplied
policy allows fallback, chunks whose budget runs out degrade to an
in-process serial replay — same values, recorded via the
``degraded_mode`` gauge.  See ``docs/robustness.md``.

Telemetry survives the fan-out: when the parent has observability
enabled, a :class:`~repro.obs.TelemetrySnapshot` of the active capture
window travels with each task, the worker records into an equivalent
window of its own, and the returned
:class:`~repro.obs.WorkerTelemetry` is merged into the parent registry
/ tracer / span buffer in submission order — so parallel metric totals
equal serial ones (asserted in ``tests/test_parallel.py``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Sequence

from .. import obs
from ..resilience import RetryPolicy, run_chunks
from .pool import PoolSupervisor, chunked

if TYPE_CHECKING:  # import cycle: core.estimator lazily imports this module
    from ..core.estimator import QueryLike, SelectivityEstimator

__all__ = ["estimate_trees_parallel", "DEFAULT_CHUNKS_PER_WORKER", "FAULT_SITE"]

#: Chunks submitted per worker; >1 smooths out per-query cost skew.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Fault-injection / retry site name for this fan-out (chaos specs and
#: the ``fault_*`` / ``retry_*`` metric labels use it).
FAULT_SITE = "batch.estimate_chunk"

_worker_estimator: "SelectivityEstimator | None" = None
_worker_backend: str = "plan"


def _init_worker(estimator: "SelectivityEstimator", backend: str = "plan") -> None:
    global _worker_estimator, _worker_backend
    _worker_estimator = estimator
    _worker_backend = backend


def _estimate_chunk(
    chunk: list[Any],
    snapshot: obs.TelemetrySnapshot | None,
) -> tuple[list[float], obs.WorkerTelemetry | None]:
    estimator = _worker_estimator
    if estimator is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("estimation worker used before initialisation")
    if snapshot is None:
        return estimator._estimate_coerced(chunk, _worker_backend), None
    with obs.worker_window(snapshot) as telemetry:
        values = estimator._estimate_coerced(chunk, _worker_backend)
    return values, telemetry


def estimate_trees_parallel(
    estimator: "SelectivityEstimator",
    queries: "Sequence[QueryLike]",
    *,
    workers: int,
    chunk_size: int | None = None,
    backend: str = "plan",
    retry: RetryPolicy | None = None,
) -> list[float]:
    """Estimate ``queries`` across ``workers`` processes, preserving order.

    ``queries`` may take any accepted form; each is coerced once here,
    before chunking (:meth:`SelectivityEstimator._coerce`).

    ``chunk_size`` pins the number of queries per submitted task; by
    default the batch is split into ``workers * 4`` near-even chunks.
    Cross-query memo sharing happens per chunk (workers do not share
    memory), which affects speed only — never a single estimated value.

    ``backend`` selects the per-chunk replay path inside each worker
    (an already-resolved name: ``"plan"`` / ``"numpy"``).
    For the kernel backend the parent lowers every warm shape's plan to a
    flat-array program *before* the fan-out, so the programs travel
    once per worker with the pickled estimator (through the pool
    initializer) and are reused across every chunk that worker runs —
    no per-chunk recompilation or re-lowering.

    ``retry`` sets the failure budget per chunk (default: no retries,
    failures raise a chained
    :class:`~repro.resilience.retry.ChunkFailureError`).  A policy with
    ``fallback=True`` degrades out-of-budget chunks to an in-process
    serial replay instead of failing the batch; the result values are
    identical either way.
    """
    if workers < 2:
        raise ValueError(f"parallel fan-out needs workers >= 2, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if backend != "plan":
        state = estimator._kernel_state()
        for key, plan in estimator._kernel_warm_plans():
            state.program_for(key, plan)
    batch = [estimator._coerce(query) for query in queries]
    if chunk_size is None:
        chunks = chunked(batch, workers * DEFAULT_CHUNKS_PER_WORKER)
    else:
        chunks = [
            batch[start : start + chunk_size]
            for start in range(0, len(batch), chunk_size)
        ]
    if not chunks:
        return []
    policy = retry if retry is not None else RetryPolicy.none()
    snapshot = obs.telemetry_snapshot()
    tasks = [(chunk, snapshot) for chunk in chunks]

    def _make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(estimator, backend),
        )

    def _serial_chunk(
        task: tuple[list[Any], obs.TelemetrySnapshot | None],
    ) -> tuple[list[float], obs.WorkerTelemetry | None]:
        # Degraded-mode fallback: replay the chunk in-process.  The
        # parent's live registry records telemetry directly, so no
        # worker window is needed (and ``None`` skips absorption).
        chunk, _ = task
        return estimator._estimate_coerced(chunk, backend), None

    supervisor = PoolSupervisor(_make_executor)
    try:
        report = run_chunks(
            _estimate_chunk,
            tasks,
            supervisor=supervisor,
            site=FAULT_SITE,
            policy=policy,
            serial_fallback=_serial_chunk,
        )
    finally:
        supervisor.close()
    estimates: list[float] = []
    for values, telemetry in report.results:
        estimates.extend(values)
        if telemetry is not None:
            obs.absorb_worker_telemetry(telemetry)
    return estimates
