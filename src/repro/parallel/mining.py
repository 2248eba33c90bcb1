"""Multi-process candidate counting for the level-wise miner.

Worker model
------------
One :class:`~concurrent.futures.ProcessPoolExecutor` is created lazily
per mine.  Each worker receives the :class:`~repro.trees.matching.
DocumentIndex` once (through the pool initializer) and keeps a
process-local :class:`~repro.mining.occurrences.OccurrenceCounter`
whose anchor maps and aggregates accumulate across levels — the same
counter the serial miner uses.  A sub-pattern another worker counted is
rebuilt on demand from its own kids' maps.

Failure discipline
------------------
Submissions go through the retry engine (:func:`repro.resilience.
runner.run_chunks`): a crashed or hung worker tears the pool down, a
fresh one is built (rebuilt workers start with an empty counter — a
speed cost, never a correctness one), and only chunks without a result
are re-submitted.  With retries disabled (the default) failures surface
as a chained :class:`~repro.resilience.retry.ChunkFailureError`; a
policy with ``fallback=True`` instead degrades out-of-budget chunks to a
parent-side counter, which keeps its own memo across levels.
See ``docs/robustness.md``.

Determinism
-----------
Candidate counts are exact integers, and an occurrence counter's count
of a candidate is a pure function of the candidate and the document:
its memo only holds exact anchor maps and aggregates, and a miss
rebuilds them from the kids' maps.  So *any* partition of the candidate
set, in any worker and in any order, yields the same counts.  Chunks
are contiguous slices of the caller's (sorted) candidate list and
results are merged in submission order, so the merged mapping preserves
the serial path's insertion order too — parallel mining is
bit-identical to serial, dict order included, retries and degraded
chunks notwithstanding.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from types import TracebackType
from typing import Sequence

from .. import obs
from ..mining.occurrences import OccurrenceCounter
from ..resilience import RetryPolicy, run_chunks
from ..trees.canonical import Canon
from ..trees.matching import DocumentIndex
from .pool import PoolSupervisor, chunked

__all__ = ["ParallelMiningPool"]

#: Chunks submitted per worker and level; >1 smooths out skew between
#: cheap and expensive candidates at a small scheduling cost.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Fault-injection / retry site name for this fan-out (chaos specs and
#: the ``fault_*`` / ``retry_*`` metric labels use it).
FAULT_SITE = "mining.count_chunk"

# Worker-process state, installed by _init_worker.  The counter's
# memo deliberately persists across tasks: workers are reused for every
# level of one mine, and level n+1 candidates decompose into level <= n
# sub-patterns the worker has usually already counted.
_worker_counter: OccurrenceCounter | None = None


def _init_worker(index: DocumentIndex) -> None:
    global _worker_counter
    _worker_counter = OccurrenceCounter(index)


def _count_chunk(
    candidates: list[Canon],
    keep_maps: bool,
    snapshot: obs.TelemetrySnapshot | None,
) -> tuple[list[tuple[Canon, int]], obs.WorkerTelemetry | None]:
    """Count one chunk of candidates; only occurring ones are returned."""
    counter = _worker_counter
    if counter is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("mining worker used before initialisation")
    if snapshot is None:
        return _count_candidates(candidates, counter, keep_maps), None
    with obs.worker_window(snapshot) as telemetry:
        counted = _count_candidates(candidates, counter, keep_maps)
    return counted, telemetry


def _count_candidates(
    candidates: list[Canon],
    counter: OccurrenceCounter,
    keep_maps: bool,
) -> list[tuple[Canon, int]]:
    counted: list[tuple[Canon, int]] = []
    for candidate in candidates:
        count = counter.count(candidate, keep_map=keep_maps)
        if obs.enabled:
            obs.registry.counter(
                "mining_candidate_evaluations_total",
                "Candidate patterns counted against the document index.",
            ).inc()
        if count:
            counted.append((candidate, count))
    return counted


class ParallelMiningPool:
    """Owns the worker pool for one parallel mine.

    The executor is created on first use (a mine that stops at level 1
    never pays the fork cost) and must be released with :meth:`close`
    or by using the pool as a context manager.
    """

    def __init__(
        self,
        index: DocumentIndex,
        workers: int,
        *,
        chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
        retry: RetryPolicy | None = None,
    ) -> None:
        if workers < 2:
            raise ValueError(f"a parallel pool needs workers >= 2, got {workers}")
        if chunks_per_worker < 1:
            raise ValueError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
            )
        self.index = index
        self.workers = workers
        self.chunks_per_worker = chunks_per_worker
        self.retry = retry if retry is not None else RetryPolicy.none()
        self._supervisor = PoolSupervisor(self._make_executor)
        # Parent-side counter for degraded chunks; like a worker's, its
        # memo persists across levels of one mine.
        self._fallback = OccurrenceCounter(index)

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.index,),
        )

    def _serial_chunk(
        self,
        task: tuple[list[Canon], bool, obs.TelemetrySnapshot | None],
    ) -> tuple[list[tuple[Canon, int]], obs.WorkerTelemetry | None]:
        # Degraded-mode fallback: count the chunk in-process.  The
        # parent's live registry records telemetry directly, so no
        # worker window is needed (and ``None`` skips absorption).
        candidates, keep_maps, _ = task
        return _count_candidates(candidates, self._fallback, keep_maps), None

    def count_candidates(
        self, candidates: Sequence[Canon], *, keep_maps: bool = True
    ) -> dict[Canon, int]:
        """``{candidate: exact count}`` for every *occurring* candidate.

        Insertion order of the result follows ``candidates`` order, so a
        sorted input yields the exact mapping the serial miner builds.
        ``keep_maps=False`` (the top level of a mine) counts without
        memoising the candidates' anchor maps.
        """
        if not candidates:
            return {}
        chunks = chunked(candidates, self.workers * self.chunks_per_worker)
        snapshot = obs.telemetry_snapshot()
        tasks = [(chunk, keep_maps, snapshot) for chunk in chunks]
        report = run_chunks(
            _count_chunk,
            tasks,
            supervisor=self._supervisor,
            site=FAULT_SITE,
            policy=self.retry,
            serial_fallback=self._serial_chunk,
        )
        counts: dict[Canon, int] = {}
        for pairs, telemetry in report.results:
            counts.update(pairs)
            if telemetry is not None:
                obs.absorb_worker_telemetry(telemetry)
        return counts

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._supervisor.close()

    def __enter__(self) -> "ParallelMiningPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
