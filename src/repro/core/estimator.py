"""Estimator interface shared by TreeLattice estimators and baselines.

Every estimator consumes a twig query — as a :class:`TwigQuery`, a
:class:`LabeledTree`, a canon tuple, or query text in either supported
syntax — and returns a non-negative float estimate of its selectivity
(the number of matches per Definition 1).

Definition 1 matches unordered twigs, so TreeLattice's own estimators
(:class:`KeyedEstimator`) take each query by its canonical form, derived
once per query by :func:`query_key`: isomorphic spellings of a twig
receive the same estimate, and compiled plans are cached by that key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, ContextManager, Sequence

from .. import obs
from ..trees.canonical import Canon, canon, canon_to_tree
from ..trees.labeled_tree import LabeledTree
from ..trees.twig import TwigQuery

if TYPE_CHECKING:
    from ..kernels import KernelState
    from ..kernels.program import PlanT
    from ..resilience import RetryPolicy

__all__ = [
    "QueryLike",
    "KeyedEstimator",
    "SelectivityEstimator",
    "coerce_query_tree",
    "query_key",
]

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


def query_key(query: QueryLike) -> Canon:
    """The canonical form of any accepted query form.

    A :class:`TwigQuery` answers from its cached :meth:`~TwigQuery.
    canonical` (which :meth:`TwigQuery.from_pattern` seeds while
    decoding), so asking the same query object again walks no tree.  A
    bare tree costs one :func:`canon` walk.  A caller's canon tuple is
    re-canonicalised, never trusted as given: a tuple with unsorted
    children gets the key of its sorted twin.
    """
    if isinstance(query, TwigQuery):
        return query.canonical()
    if isinstance(query, LabeledTree):
        return canon(query)
    if isinstance(query, str):
        return TwigQuery.parse(query).canonical()
    if isinstance(query, tuple):
        return canon(canon_to_tree(query))
    raise TypeError(f"cannot interpret {type(query).__name__} as a twig query")


class SelectivityEstimator(ABC):
    """Common surface of all selectivity estimators.

    Subclasses implement :meth:`_estimate_tree`; the public
    :meth:`estimate` handles input coercion, and :meth:`estimate_count`
    rounds to the nearest non-negative integer for callers that want an
    approximate COUNT answer rather than a raw estimate.  TreeLattice's
    own estimators derive from :class:`KeyedEstimator` and implement
    ``_estimate_key`` instead.
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
        batching never changes an estimate, and TreeLattice's estimators
        give each twig a value that depends on its canonical form alone,
        so a batch on a fresh estimator returns what per-query calls on
        fresh estimators return.  Subclasses share work across the batch
        (the recursive/voting estimator reuses sub-twig selectivities
        through one cross-query memo, see
        :meth:`~repro.core.recursive.RecursiveDecompositionEstimator.
        _estimate_keys`), and ``workers`` fans large batches out over
        worker processes in deterministic chunks (``0`` = one worker per
        core; ``chunk_size`` pins queries per task).  Either way each
        query is coerced once, in this process: a keyed estimator's
        chunks carry canonical keys.

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
            if n_workers > 1 and len(queries) > 1:
                from ..parallel.batch import estimate_trees_parallel

                return estimate_trees_parallel(
                    self,
                    queries,
                    workers=n_workers,
                    chunk_size=chunk_size,
                    backend=resolved,
                    retry=retry,
                )
            batch = [self._coerce(query) for query in queries]
            return self._estimate_coerced(batch, resolved)

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

    def _coerce(self, query: QueryLike) -> Any:
        """One query in the form the batch hooks take: a tree here."""
        return coerce_query_tree(query)

    def _estimate_coerced(self, batch: Sequence[Any], backend: str) -> list[float]:
        """Batch hook: estimate queries :meth:`_coerce` prepared.

        ``backend`` is already resolved (always ``"plan"`` for an
        estimator without kernel support).  The parallel fan-out calls
        this once per chunk inside each worker.
        """
        return [self._estimate_tree(tree) for tree in batch]

    def _kernel_state(self) -> "KernelState":
        """The estimator's kernel caches, created on first kernel use."""
        state = self._kernels
        if state is None:
            from ..kernels import KernelState

            state = KernelState()
            self._kernels = state
        return state

    def _kernel_warm_plans(self) -> Sequence[tuple[Canon, "PlanT"]]:
        """Every ``(key, plan)`` already compiled on this instance.

        The parallel fan-out lowers these to kernel programs *before*
        pickling the estimator to workers, so programs ship once per
        worker instead of being re-lowered per chunk.
        """
        return ()

    @abstractmethod
    def _estimate_tree(self, tree: LabeledTree) -> float:
        """Estimate the selectivity of a coerced query tree."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class KeyedEstimator(SelectivityEstimator):
    """An estimator whose estimate is a function of the twig's canonical form.

    :meth:`estimate` and :meth:`estimate_batch` resolve each query to its
    key once (:func:`query_key`) and hand only the key on: subclasses
    implement :meth:`_estimate_key`, key their compiled plans by it and
    compile from the key alone, so a warm probe is one dict lookup and
    isomorphic spellings agree bit for bit.  Estimators that set
    :attr:`supports_kernels` also implement :meth:`_kernel_probe` and
    :meth:`_kernel_warm_plans`.
    """

    def estimate(self, query: QueryLike) -> float:
        """Estimated selectivity of ``query`` (non-negative float)."""
        return self._estimate_key(query_key(query))

    def _estimate_tree(self, tree: LabeledTree) -> float:
        return self._estimate_key(canon(tree))

    def _coerce(self, query: QueryLike) -> Canon:
        return query_key(query)

    def _estimate_coerced(self, batch: Sequence[Canon], backend: str) -> list[float]:
        if backend != "plan":
            return self._estimate_keys_kernel(batch, backend)
        return self._estimate_keys(batch)

    def _estimate_keys(self, keys: Sequence[Canon]) -> list[float]:
        """Plan-replay batch hook: estimate keys sequentially.

        Subclasses override this to share state across the batch.
        """
        return [self._estimate_key(key) for key in keys]

    @abstractmethod
    def _estimate_key(self, key: Canon) -> float:
        """Estimate the twig whose canonical form is ``key``."""

    # ------------------------------------------------------------------
    # Kernel batch path (backend="numpy")
    # ------------------------------------------------------------------

    def _estimate_keys_kernel(
        self, keys: Sequence[Canon], backend: str
    ) -> list[float]:
        """Batch hook for kernel backends: vectorise the warm shapes.

        Warm queries (shape already compiled) are deferred and executed
        together through :meth:`KernelState.execute`; cold queries run
        the untouched legacy :meth:`_estimate_key` (which compiles the
        plan, so the shape is warm for every later batch).  A warm
        replay feeds nothing to later compiles, so deferring it changes
        neither values nor observability counters.
        """
        state = self._kernel_state()
        if not obs.enabled:
            return self._run_kernel_batch(keys, state)
        with obs.span(
            "kernel_batch",
            backend=backend,
            estimator=self.name,
            queries=len(keys),
        ) as batch_span:
            values = self._run_kernel_batch(keys, state)
            batch_span.set(programs=state.program_count)
        from ..kernels.record import record_kernel_batch

        record_kernel_batch(backend, self.name, len(keys), state.program_count)
        return values

    def _run_kernel_batch(
        self, keys: Sequence[Canon], state: "KernelState"
    ) -> list[float]:
        results = [0.0] * len(keys)
        warm_indices: list[int] = []
        warm_keys: list[Canon] = []
        warm_plans: list["PlanT"] = []
        with self._kernel_batch_scope():
            for index, key in enumerate(keys):
                plan = self._kernel_probe(key)
                if plan is not None:
                    self._note_kernel_hit(key, plan)
                    warm_indices.append(index)
                    warm_keys.append(key)
                    warm_plans.append(plan)
                else:
                    results[index] = self._estimate_key(key)
            if warm_indices:
                values = state.execute(warm_keys, warm_plans)
                for index, value in zip(warm_indices, values):
                    results[index] = value
        return results

    def _kernel_probe(self, key: Canon) -> "PlanT | None":
        """The plan compiled for ``key``, or ``None`` when it is cold."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support kernel backends"
        )

    def _kernel_batch_scope(self) -> ContextManager[None]:
        """Cross-query state scope for one kernel batch (the batch memo)."""
        return nullcontext()

    def _note_kernel_hit(self, key: Canon, plan: "PlanT") -> None:
        """A warm query was deferred to the kernel executor."""
