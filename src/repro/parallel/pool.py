"""Worker-count resolution, deterministic chunking, pool supervision.

Plumbing for the batched-estimation fan-out (:mod:`repro.parallel.
batch`).  Chunking is deterministic — contiguous, near-even slices in
input order — so any consumer that concatenates per-chunk results in
submission order reproduces the serial output exactly.

:class:`PoolSupervisor` owns a :class:`~concurrent.futures.
ProcessPoolExecutor` lifecycle on behalf of the retry engine
(:func:`repro.resilience.runner.run_chunks`): submissions go through
it, and after a crash (``BrokenProcessPool``) or a hung worker it
abandons the broken pool and lazily builds a fresh one from the
factory the call site provided — the factory closes over the
``initializer``/``initargs`` pair, so rebuilt workers are provisioned
exactly like the originals.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["available_workers", "resolve_workers", "chunked", "PoolSupervisor"]

_T = TypeVar("_T")


def available_workers() -> int:
    """Number of CPUs this process may run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob to a concrete worker count.

    ``None`` and ``1`` mean serial; ``0`` means one worker per available
    core; any other positive value is taken literally (the pool may
    oversubscribe small machines — that is the caller's call).
    """
    if workers is None:
        return 1
    if workers == 0:
        return available_workers()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def chunked(items: Sequence[_T], chunks: int) -> list[list[_T]]:
    """Split ``items`` into at most ``chunks`` contiguous, near-even slices.

    Every slice is non-empty, slice sizes differ by at most one, and
    concatenating the slices in order reproduces ``items`` — the
    property the parallel paths' determinism rests on.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    n = len(items)
    chunks = min(chunks, n)
    if chunks <= 1:
        return [list(items)] if n else []
    base, extra = divmod(n, chunks)
    out: list[list[_T]] = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        out.append(list(items[start:stop]))
        start = stop
    return out


class PoolSupervisor:
    """A rebuildable process-pool handle (the retry engine's executor).

    Satisfies :class:`repro.resilience.runner.ExecutorSupervisor`.  The
    executor is created lazily on first submit, so a run whose every
    chunk degrades to serial never pays the fork cost twice.
    """

    def __init__(self, factory: Callable[[], ProcessPoolExecutor]) -> None:
        self._factory = factory
        self._executor: ProcessPoolExecutor | None = None
        #: pools abandoned after crashes / hangs (monotonic).
        self.rebuilds = 0

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> "Future[Any]":
        """Submit a call to the current pool (creating it if needed)."""
        if self._executor is None:
            self._executor = self._factory()
        return self._executor.submit(fn, *args)

    def rebuild(self) -> None:
        """Abandon the current pool; the next submit starts a fresh one.

        The broken pool is shut down without waiting: a crashed pool has
        nothing to wait for, and a hung worker would block forever — its
        process is orphaned instead and exits when its task (if any)
        finally returns.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.rebuilds += 1

    def close(self) -> None:
        """Shut the current pool down cleanly (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
