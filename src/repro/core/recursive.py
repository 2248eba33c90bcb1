"""Recursive decomposition estimator (paper §3.2, Theorem 1, Lemma 1).

To estimate a twig ``T`` larger than the lattice level, remove two
degree-1 nodes ``u`` and ``v``:

    s(T)  ≈  s(T - u) * s(T - v) / s(T - u - v)

and recurse on the three parts until every pattern fits in the lattice.
The formula is the expected count under the assumption that growing
``T - u - v`` by the ``u``-edge is conditionally independent of growing
it by the ``v``-edge (Theorem 1).

The **voting** extension evaluates *every* leaf-pair choice at each
recursion level and averages, using the averaged value as the estimate
fed into the next level up.  Memoisation on canonical forms makes this
the bottom-up scheme the paper describes and keeps the cost polynomial
in the number of distinct sub-patterns instead of exponential in the
recursion depth.

Definition 1 matches unordered twigs, so the estimate is a function of
the twig's canonical form alone.  Every twig that must be decomposed —
the query and each memo-missed sub-twig — is first rebuilt as its
canonical instance (:func:`~repro.trees.canonical.canon_to_tree`), so
the leaf pairs are enumerated, and the votes summed, in an order set by
the key rather than by whichever node numbering arrived first.
Isomorphic spellings therefore get bit-identical estimates, on fresh
and warmed estimators alike.

The first estimate of each canonical shape additionally *compiles* the
recursion into a :class:`~repro.core.plan.CompiledPlan` — summary
lookups resolved to constants, the Theorem 1 arithmetic recorded as a
replayable op DAG — cached under the query's canonical form, so a
repeated shape costs one dict probe and a replay.  Warm replays are
bit-identical to cold runs (see ``docs/architecture.md`` for the plan
lifecycle).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from ..kernels.program import PlanT

from .. import obs
from ..trees.canonical import (
    Canon,
    PatternInterner,
    canon,
    canon_size,
    canon_to_tree,
    encode_canon,
)
from ..trees.labeled_tree import LabeledTree
from .decompose import leaf_pair_decompositions
from .estimator import KeyedEstimator
from .lattice import LatticeSummary
from .plan import CompiledPlan, PlanBuilder, record_plan_request

__all__ = ["RecursiveDecompositionEstimator"]


def _record_lookup(
    outcome: str, key: Canon, size: int, value: float | None = None
) -> None:
    """Metrics + trace + span for one summary lookup (when enabled)."""
    if not obs.enabled:  # call sites check too; this is defence in depth
        return
    obs.registry.counter(
        "lattice_lookups_total",
        "Summary lookups by outcome (hit / complete_zero / pruned_miss).",
        labels=("outcome",),
    ).inc(outcome=outcome)
    pattern = encode_canon(key)
    obs.event("lattice_lookup", outcome=outcome, pattern=pattern, size=size)
    obs.span_point(
        "lattice_lookup",
        outcome=outcome,
        pattern=pattern,
        size=size,
        value=value,
    )


class RecursiveDecompositionEstimator(KeyedEstimator):
    """TreeLattice's recursive decomposition estimator.

    Parameters
    ----------
    lattice:
        The summary to draw small-twig counts from.  Treated as
        immutable: compiled plans bake its counts in (call
        :meth:`clear_cache` in the unusual case the summary object is
        swapped out underneath the estimator).
    voting:
        When true, average over all leaf-pair decompositions at every
        recursion level (the paper's "+ Voting" variant); otherwise use
        the first pair only.
    shared_cache:
        When true, keep one memo of sub-twig selectivities across *all*
        queries this instance estimates (instead of one fresh memo per
        query), so a workload of related twigs pays each distinct
        sub-pattern once.  Memoisation never changes a value — every
        entry is a deterministic function of (canon, lattice), computed
        on the canonical instance — so estimates are bit-identical with
        the cache on or off.  Drop the memo with :meth:`clear_cache`
        after mutating the summary.
    """

    def __init__(
        self,
        lattice: LatticeSummary,
        *,
        voting: bool = False,
        shared_cache: bool = False,
    ) -> None:
        self.lattice = lattice
        self.voting = voting
        self.name = (
            "recursive-decomp + voting" if voting else "recursive-decomp"
        )
        self._max_depth = 0
        # Sub-twig memo, keyed by dense ids from the memo interner.
        self._shared_memo: dict[int, float] | None = {} if shared_cache else None
        self._memo_keys = PatternInterner()
        # Plan cache: canonical form of the query -> compiled plan.
        self._plans: dict[Canon, CompiledPlan] = {}
        # Warm plans seen by the current kernel batch whose memo
        # donations have not been replayed yet (see _before_kernel_cold).
        self._kernel_pending: list[CompiledPlan] = []

    def clear_cache(self) -> None:
        """Forget memoised selectivities *and* compiled plans.

        Both caches are pure functions of (canon, summary); dropping them
        never changes an estimate, it only makes the next query per shape
        pay compilation again.
        """
        if self._shared_memo is not None:
            self._shared_memo.clear()
        self._plans.clear()
        if self._kernels is not None:
            self._kernels.clear()

    @contextmanager
    def batch_cache(self) -> Iterator[None]:
        """Scope a shared cross-query memo for the duration of one batch.

        With a persistent ``shared_cache`` this is a no-op; otherwise a
        temporary memo is installed and dropped on exit.  Used by the
        batch path here and by the fix-sized estimator's fallback.
        """
        if self._shared_memo is not None:
            yield
            return
        self._shared_memo = {}
        try:
            yield
        finally:
            self._shared_memo = None

    def _estimate_keys(self, keys: Sequence[Canon]) -> list[float]:
        """Batch hook: one memo shared by every query in the batch."""
        with self.batch_cache():
            return [self._estimate_key(key) for key in keys]

    # ------------------------------------------------------------------
    # Kernel batch hooks (see KeyedEstimator._estimate_keys_kernel)
    # ------------------------------------------------------------------

    supports_kernels = True

    def _kernel_probe(self, key: Canon) -> "PlanT | None":
        return self._plans.get(key)

    def _kernel_warm_plans(self) -> Sequence[tuple[Canon, "PlanT"]]:
        return list(self._plans.items())

    @contextmanager
    def _kernel_batch_scope(self) -> Iterator[None]:
        """Batch memo plus the pending-donation list for this batch.

        On exit, warm plans whose donations were never needed by a cold
        compile are flushed only when the memo is *persistent*
        (``shared_cache=True``): a later batch's cold compile must see
        exactly the memo a legacy batch would have left behind.  With a
        per-batch memo the leftover donations die with the scope, so the
        flush (which replays plans scalar-ly) is skipped — that is what
        keeps all-warm kernel batches free of per-query Python work.
        """
        persistent = self._shared_memo is not None
        self._kernel_pending = []
        with self.batch_cache():
            try:
                yield
            finally:
                if persistent:
                    self._before_kernel_cold()
                self._kernel_pending = []

    def _note_kernel_hit(self, key: Canon, plan: "PlanT") -> None:
        assert isinstance(plan, CompiledPlan)
        self._kernel_pending.append(plan)
        if obs.enabled:
            record_plan_request(
                self.name, "hit", len(self._plans), len(self._memo_keys)
            )

    def _before_kernel_cold(self) -> None:
        """Replay pending warm plans' memo donations (legacy order).

        In the legacy batch loop every warm replay donates its sub-twig
        values to the shared memo *before* later queries run.  The
        kernel path defers warm queries, so right before a cold compile
        it re-establishes the exact memo a legacy run would have: each
        pending plan's ``evaluate(memo)`` — bit-identical to the kernel
        result — donates in the original query order.  All-warm batches
        never pay this.
        """
        if not self._kernel_pending:
            return
        memo = self._shared_memo
        if memo is not None:
            for plan in self._kernel_pending:
                plan.evaluate(memo)
        self._kernel_pending.clear()

    def _estimate_key(self, key: Canon) -> float:
        plan = self._plans.get(key)
        if plan is not None:
            # A replay donates sub-twig values only to a shared memo (a
            # batch's, or a persistent one); a plain estimate has none.
            shared = self._shared_memo
            if not obs.enabled:
                return plan.evaluate(shared)
            record_plan_request(
                self.name, "hit", len(self._plans), len(self._memo_keys)
            )
            with obs.span("estimate", estimator=self.name, plan="hit") as root_span:
                traced = obs.span_recording()
                if traced:
                    root_span.set(pattern=encode_canon(key))
                with obs.registry.timer(
                    "estimate_seconds", "Per-query estimation wall time."
                ).time() as frame:
                    value = (
                        plan.evaluate_traced(shared)
                        if traced
                        else plan.evaluate(shared)
                    )
                root_span.set(value=value, depth=plan.max_depth)
            obs.registry.histogram(
                "recursion_depth",
                "Deepest decomposition level reached per query.",
            ).observe(plan.max_depth)
            obs.registry.quantile(
                "estimate_latency_seconds",
                "Per-query estimation latency quantiles.",
            ).observe(frame.elapsed)
            return value
        memo = self._shared_memo if self._shared_memo is not None else {}
        size = canon_size(key)
        builder = PlanBuilder()
        self._max_depth = 0
        if not obs.enabled:
            value, root = self._compile(key, size, memo, 0, builder)
            self._plans[key] = builder.build(root, self._max_depth)
            return value
        with obs.span("estimate", estimator=self.name, plan="miss") as root_span:
            if obs.span_recording():
                root_span.set(pattern=encode_canon(key))
            with obs.registry.timer(
                "estimate_seconds", "Per-query estimation wall time."
            ).time() as frame:
                value, root = self._compile(key, size, memo, 0, builder)
            root_span.set(value=value, depth=self._max_depth)
        obs.registry.histogram(
            "recursion_depth", "Deepest decomposition level reached per query."
        ).observe(self._max_depth)
        obs.registry.quantile(
            "estimate_latency_seconds",
            "Per-query estimation latency quantiles.",
        ).observe(frame.elapsed)
        self._plans[key] = builder.build(root, self._max_depth)
        record_plan_request(
            self.name, "miss", len(self._plans), len(self._memo_keys)
        )
        return value

    def _compile(
        self,
        key: Canon,
        size: int,
        memo: dict[int, float],
        depth: int,
        builder: PlanBuilder,
    ) -> tuple[float, int]:
        """One recursion node: return ``(estimate, slot holding it)``.

        This *is* the original estimation recursion — same lookups, same
        float operations, same observability — it just records every
        value and operation into ``builder`` as a side effect.  ``key``
        is the sub-twig's canonical form and ``size`` its node count.
        """
        pattern_id = self._memo_keys.intern(key)
        cached = memo.get(pattern_id)
        if cached is not None:
            if obs.enabled:
                self._record_memo("hit")
                if obs.span_recording():
                    obs.span_point(
                        "memo_hit", pattern=encode_canon(key), value=cached
                    )
            return cached, builder.const(cached)
        if obs.enabled:
            self._record_memo("miss")
        value = self._lookup(key, size)
        if value is None:
            # Decompose the canonical instance, so the value (and the
            # memo entry) is a function of the key alone.
            tree = canon_to_tree(key)
            if obs.enabled:
                with obs.span("decompose", size=size, depth=depth) as dspan:
                    if obs.span_recording():
                        dspan.set(pattern=encode_canon(key))
                    value, slot = self._compile_decompose(
                        tree, memo, depth, builder
                    )
                    dspan.set(value=value)
            else:
                value, slot = self._compile_decompose(tree, memo, depth, builder)
        else:
            slot = builder.const(value)
        memo[pattern_id] = value
        builder.note_memo(pattern_id, slot)
        return value, slot

    @staticmethod
    def _record_memo(outcome: str) -> None:
        if not obs.enabled:  # call sites check too; this is defence in depth
            return
        obs.registry.counter(
            "memo_lookups_total",
            "Per-query memo table lookups by outcome.",
            labels=("outcome",),
        ).inc(outcome=outcome)

    def _lookup(self, key: Canon, size: int) -> float | None:
        """Try the summary; ``None`` means "must decompose"."""
        if size > self.lattice.level:
            return None
        stored = self.lattice.get(key)
        if stored is not None:
            if obs.enabled:
                _record_lookup("hit", key, size, float(stored))
            return float(stored)
        if self.lattice.is_complete_at(size):
            # The summary stores every occurring pattern of this size, so
            # absence certifies a true zero (the negative-workload case).
            if obs.enabled:
                _record_lookup("complete_zero", key, size, 0.0)
            return 0.0
        if size < 3:
            # Defensive: pruned summaries always retain levels 1-2; a
            # missing 1- or 2-pattern therefore does not occur.
            if obs.enabled:
                _record_lookup("complete_zero", key, size, 0.0)
            return 0.0
        if obs.enabled:
            _record_lookup("pruned_miss", key, size)
        return None  # pruned away: fall through to decomposition

    def _compile_decompose(
        self,
        tree: LabeledTree,
        memo: dict[int, float],
        depth: int,
        builder: PlanBuilder,
    ) -> tuple[float, int]:
        total = 0.0
        count = 0
        parts: list[int] = []
        for split in leaf_pair_decompositions(tree):
            if obs.enabled:
                obs.span_point("choice", index=count)
            common, t1, t2 = split.common, split.t1, split.t2
            denominator, denominator_slot = self._compile(
                canon(common), common.size, memo, depth + 1, builder
            )
            if denominator <= 0.0:
                # The original recursion never evaluates t1/t2 here, so
                # neither does the compiler; the plan keeps the folded 0.
                estimate = 0.0
                part = builder.const(0.0)
            else:
                t1_value, t1_slot = self._compile(
                    canon(t1), t1.size, memo, depth + 1, builder
                )
                t2_value, t2_slot = self._compile(
                    canon(t2), t2.size, memo, depth + 1, builder
                )
                estimate = t1_value * t2_value / denominator
                part = builder.ratio(t1_slot, t2_slot, denominator_slot)
            parts.append(part)
            total += estimate
            count += 1
            if not self.voting:
                break
        # Tracked unconditionally (not only under obs): the compiled
        # plan's max_depth must match what a cold observed run reports.
        if depth + 1 > self._max_depth:
            self._max_depth = depth + 1
        if obs.enabled:
            obs.registry.counter(
                "decompose_steps_total", "Decomposition nodes expanded."
            ).inc()
            obs.registry.histogram(
                "voting_fanout",
                "Leaf-pair decompositions averaged per expanded node.",
            ).observe(count)
            obs.event(
                "decompose_step", size=tree.size, depth=depth, fanout=count
            )
        if not count:
            return 0.0, builder.const(0.0)
        return total / count, builder.average(parts)

    def __repr__(self) -> str:
        return (
            f"RecursiveDecompositionEstimator(level={self.lattice.level}, "
            f"voting={self.voting})"
        )
