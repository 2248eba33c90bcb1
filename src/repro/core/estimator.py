"""Estimator interface shared by TreeLattice estimators and baselines.

Every estimator consumes a twig query — as a :class:`TwigQuery`, a
:class:`LabeledTree`, a canon tuple, or query text in either supported
syntax — and returns a non-negative float estimate of its selectivity
(the number of matches per Definition 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager, Sequence

from .. import obs
from ..trees.canonical import Canon, canon_to_tree
from ..trees.labeled_tree import LabeledTree
from ..trees.twig import TwigQuery

if TYPE_CHECKING:
    from ..kernels import KernelState
    from ..kernels.program import PlanT
    from ..resilience import RetryPolicy

__all__ = ["QueryLike", "SelectivityEstimator", "coerce_query_tree"]

#: Any accepted query form (see :func:`coerce_query_tree`).
QueryLike = TwigQuery | LabeledTree | Canon | str


def coerce_query_tree(query: QueryLike) -> LabeledTree:
    """Normalise any accepted query form to a :class:`LabeledTree`."""
    if isinstance(query, TwigQuery):
        return query.tree
    if isinstance(query, LabeledTree):
        return query
    if isinstance(query, str):
        return TwigQuery.parse(query).tree
    if isinstance(query, tuple):
        return canon_to_tree(query)
    raise TypeError(f"cannot interpret {type(query).__name__} as a twig query")


class SelectivityEstimator(ABC):
    """Common surface of all selectivity estimators.

    Subclasses implement :meth:`_estimate_tree`; the public
    :meth:`estimate` handles input coercion, and :meth:`estimate_count`
    rounds to the nearest non-negative integer for callers that want an
    approximate COUNT answer rather than a raw estimate.
    """

    #: Short human-readable name used in benchmark reports.
    name: str = "estimator"

    #: Whether this estimator can lower its compiled plans to flat
    #: kernel programs (:mod:`repro.kernels`).  Baselines leave this
    #: False; ``backend="auto"`` then degrades to the legacy path.
    supports_kernels: bool = False

    #: Lazily-created kernel caches (lowered programs + prepared numpy
    #: batches); ``None`` until a kernel backend is first used.
    _kernels: "KernelState | None" = None

    def estimate(self, query: QueryLike) -> float:
        """Estimated selectivity of ``query`` (non-negative float)."""
        return self._estimate_tree(coerce_query_tree(query))

    def estimate_count(self, query: QueryLike) -> int:
        """Estimate rounded to an integer count (approximate COUNT answer)."""
        return max(0, round(self.estimate(query)))

    def estimate_batch(
        self,
        queries: Sequence[QueryLike],
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        backend: str | None = None,
        retry: "RetryPolicy | None" = None,
    ) -> list[float]:
        """Estimate a whole workload in one call.

        The values are exactly ``[self.estimate(q) for q in queries]`` —
        batching never changes an estimate — but subclasses share work
        across the batch (the recursive/voting estimator reuses sub-twig
        selectivities through one cross-query memo, see
        :meth:`~repro.core.recursive.RecursiveDecompositionEstimator.
        _estimate_trees`), and ``workers`` fans large batches out over
        worker processes in deterministic chunks (``0`` = one worker per
        core; ``chunk_size`` pins queries per task).

        ``backend`` picks how warm (already-compiled) shapes replay:
        ``None``/``"plan"`` keeps the per-query plan replay;
        ``"numpy"`` runs lowered flat-array kernel programs
        (:mod:`repro.kernels`), and ``"auto"`` picks numpy when it is
        importable and plan replay otherwise.  Every backend is
        bit-identical — same float ops in the same order per query — so
        this is purely a throughput knob.

        ``retry`` sets the parallel path's per-chunk failure budget
        (:class:`~repro.resilience.RetryPolicy`; ignored when serial).
        By default nothing is retried, but a worker crash or hang still
        surfaces as a chained
        :class:`~repro.resilience.ChunkFailureError` naming the failing
        chunk; with ``fallback=True`` exhausted chunks degrade to an
        in-process serial replay instead.  See ``docs/robustness.md``.
        """
        trees = [coerce_query_tree(query) for query in queries]
        resolved = "plan"
        if backend is not None:
            from ..kernels import resolve_backend

            resolved = resolve_backend(backend)
            if resolved != "plan" and not self.supports_kernels:
                if backend != "auto":
                    raise ValueError(
                        f"estimator {self.name!r} does not support kernel "
                        f"backend {backend!r} (it compiles no plans)"
                    )
                resolved = "plan"
        n_workers = 1
        if workers is not None:
            from ..parallel.pool import resolve_workers

            n_workers = resolve_workers(workers)

        def run() -> list[float]:
            if n_workers > 1 and len(trees) > 1:
                from ..parallel.batch import estimate_trees_parallel

                return estimate_trees_parallel(
                    self,
                    trees,
                    workers=n_workers,
                    chunk_size=chunk_size,
                    backend=resolved,
                    retry=retry,
                )
            if resolved != "plan":
                return self._estimate_trees_kernel(trees, resolved)
            return self._estimate_trees(trees)

        if not obs.enabled:
            return run()
        with obs.registry.timer(
            "estimate_batch_seconds", "Whole-batch estimation wall time."
        ).time():
            values = run()
        obs.registry.counter(
            "estimate_batch_queries_total",
            "Queries estimated through the batch API.",
        ).inc(len(values))
        return values

    def _estimate_trees(self, trees: Sequence[LabeledTree]) -> list[float]:
        """Batch hook: estimate coerced query trees sequentially.

        Subclasses override this to share state across the batch; the
        parallel fan-out calls it once per chunk inside each worker.
        """
        return [self._estimate_tree(tree) for tree in trees]

    # ------------------------------------------------------------------
    # Kernel batch path (backend="numpy")
    # ------------------------------------------------------------------

    def _kernel_state(self) -> "KernelState":
        """The estimator's kernel caches, created on first kernel use."""
        state = self._kernels
        if state is None:
            from ..kernels import KernelState

            state = KernelState()
            self._kernels = state
        return state

    def _estimate_trees_kernel(
        self, trees: Sequence[LabeledTree], backend: str
    ) -> list[float]:
        """Batch hook for kernel backends: vectorise the warm shapes.

        Warm queries (shape already compiled) are deferred and executed
        together through :meth:`KernelState.execute`; cold queries run
        the untouched legacy :meth:`_estimate_tree` (which compiles the
        plan, so the shape is warm for every later batch).  The
        :meth:`_before_kernel_cold` hook lets estimators reproduce
        legacy cross-query state (the recursive memo donations) before
        each cold compile, keeping values *and* observability counters
        identical to the plan-replay path.
        """
        state = self._kernel_state()
        if not obs.enabled:
            return self._run_kernel_batch(trees, state)
        with obs.span(
            "kernel_batch",
            backend=backend,
            estimator=self.name,
            queries=len(trees),
        ) as batch_span:
            values = self._run_kernel_batch(trees, state)
            batch_span.set(programs=state.program_count)
        from ..kernels.record import record_kernel_batch

        record_kernel_batch(backend, self.name, len(trees), state.program_count)
        return values

    def _run_kernel_batch(
        self, trees: Sequence[LabeledTree], state: "KernelState"
    ) -> list[float]:
        results = [0.0] * len(trees)
        warm_indices: list[int] = []
        warm_ids: list[int] = []
        warm_plans: list["PlanT"] = []
        with self._kernel_batch_scope():
            for index, tree in enumerate(trees):
                pattern_id, plan = self._kernel_probe(tree)
                if plan is not None:
                    self._note_kernel_hit(tree, plan)
                    warm_indices.append(index)
                    warm_ids.append(pattern_id)
                    warm_plans.append(plan)
                else:
                    self._before_kernel_cold()
                    results[index] = self._estimate_tree(tree)
            if warm_indices:
                values = state.execute(warm_ids, warm_plans)
                for index, value in zip(warm_indices, values):
                    results[index] = value
        return results

    def _kernel_probe(self, tree: LabeledTree) -> tuple[int, "PlanT | None"]:
        """Intern the query shape; return ``(pattern_id, cached plan)``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support kernel backends"
        )

    def _kernel_warm_plans(self) -> Sequence[tuple[int, "PlanT"]]:
        """Every ``(pattern_id, plan)`` already compiled on this instance.

        The parallel fan-out lowers these to kernel programs *before*
        pickling the estimator to workers, so programs ship once per
        worker instead of being re-lowered per chunk.
        """
        return ()

    def _kernel_batch_scope(self) -> ContextManager[None]:
        """Cross-query state scope for one kernel batch (memo, pending)."""
        return nullcontext()

    def _note_kernel_hit(self, tree: LabeledTree, plan: "PlanT") -> None:
        """A warm query was deferred to the kernel executor."""

    def _before_kernel_cold(self) -> None:
        """Restore legacy cross-query state before a cold compile."""

    @abstractmethod
    def _estimate_tree(self, tree: LabeledTree) -> float:
        """Estimate the selectivity of a coerced query tree."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
