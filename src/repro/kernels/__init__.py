"""Vectorised flat-array estimation kernels.

This package lowers the per-shape compiled decomposition plans
(``CompiledPlan`` / ``CoverPlan`` / ``GramPlan``) to flat int-array
programs — an opcode stream plus packed operand table over dense slot
indices — and executes whole query batches with the ``"numpy"``
backend: whole-batch vectorised column ops over one concatenated slot
vector (:mod:`repro.kernels.exec_numpy`), used when the optional numpy
dependency is importable.

The backend is bit-identical to plan replay (the ``"plan"`` backend,
which stays the default and the reference) — same float operations in
the same order per query — which the cross-backend hypothesis suite
asserts.  Backend selection lives in :mod:`repro.kernels.backend`;
estimators expose it via ``estimate_batch(backend=...)`` and the CLI
via ``--backend``.

:class:`KernelState` is the per-estimator cache tying it together:
lowered programs keyed by the query's canonical form, the key the
estimator's plans are cached by (picklable — shipped once per worker
process and reused across chunks) plus a bounded per-process cache of
numpy :class:`~repro.kernels.exec_numpy.PreparedBatch` index structures
keyed by batch shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .backend import (
    HAVE_NUMPY,
    KERNEL_BACKENDS,
    available_backends,
    resolve_backend,
)
from .program import KernelProgram, lower_plan
from .record import record_kernel_batch, record_prepared_batch

if TYPE_CHECKING:
    from ..trees.canonical import Canon
    from .program import PlanT

__all__ = [
    "HAVE_NUMPY",
    "KERNEL_BACKENDS",
    "available_backends",
    "resolve_backend",
    "KernelProgram",
    "lower_plan",
    "KernelState",
    "record_kernel_batch",
    "record_prepared_batch",
]


class KernelState:
    """Per-estimator kernel caches: lowered programs + prepared batches.

    ``programs`` maps a canonical key -> :class:`KernelProgram` and is
    what pickles when an estimator ships to a worker process — flat
    stdlib arrays, so the one-time per-worker cost is a few contiguous
    buffer copies.  The numpy ``PreparedBatch`` cache is process-local
    (rebuilt lazily in each worker, keyed by the batch's key sequence)
    and bounded: when full it is cleared outright rather than
    LRU-tracked.  A batch whose key sequence is new is prepared afresh,
    so the cache pays off only when the same batch repeats.
    """

    _PREPARED_LIMIT = 64

    __slots__ = ("_programs", "_prepared")

    def __init__(self) -> None:
        self._programs: dict["Canon", KernelProgram] = {}
        self._prepared: dict[tuple["Canon", ...], Any] = {}

    @property
    def program_count(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        self._programs.clear()
        self._prepared.clear()

    def program_for(self, key: "Canon", plan: "PlanT") -> KernelProgram:
        """The lowered program for ``plan``, lowering on first sight."""
        program = self._programs.get(key)
        if program is None:
            program = lower_plan(plan)
            self._programs[key] = program
        return program

    def execute(
        self,
        keys: list["Canon"],
        plans: list["PlanT"],
    ) -> list[float]:
        """Evaluate one program per query with numpy, in order.

        ``keys`` and ``plans`` are parallel lists (repeats are expected
        — that is the point of a warm batch).  The batch's key sequence
        is resolved against the prepared-batch cache.
        """
        programs = [self.program_for(key, plan) for key, plan in zip(keys, plans)]
        shape = tuple(keys)
        prepared = self._prepared.get(shape)
        if prepared is None:
            from .exec_numpy import prepare_batch

            if len(self._prepared) >= self._PREPARED_LIMIT:
                self._prepared.clear()
            prepared = prepare_batch(programs)
            self._prepared[shape] = prepared
            record_prepared_batch("numpy", len(programs), prepared.num_ops)
        result: list[float] = prepared.run()
        return result

    def __getstate__(self) -> dict["Canon", KernelProgram]:
        return self._programs

    def __setstate__(self, state: dict["Canon", KernelProgram]) -> None:
        self._programs = state
        self._prepared = {}
