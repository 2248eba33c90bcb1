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
the twig's canonical form alone.  The recursion works on keys: every
twig that must be decomposed — the query and each memo-missed sub-twig
— is split by dropping removable nodes from its canonical tuple
(:func:`~repro.trees.canonical.canon_removable_paths`,
:func:`~repro.trees.canonical.canon_without`), so the leaf pairs are
enumerated, and the votes summed, in an order set by the key: the order
:func:`~repro.core.decompose.leaf_pair_decompositions` gives the
key's canonical instance.  Isomorphic spellings therefore get
bit-identical estimates, on fresh and warmed estimators alike, and the
memo is keyed by the canonical tuple itself.

The first estimate of each canonical shape additionally *compiles* the
recursion into a :class:`~repro.core.plan.CompiledPlan` — summary
lookups resolved to constants, the Theorem 1 arithmetic recorded as a
replayable op DAG with one slot per distinct sub-twig — cached under
the query's canonical form, so a repeated shape costs one dict probe
and a replay.  Warm replays are bit-identical to cold runs (see
``docs/architecture.md`` for the plan lifecycle).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations
from typing import TYPE_CHECKING, ContextManager, Iterator, Sequence

if TYPE_CHECKING:
    from ..kernels.program import PlanT

from .. import obs
from ..trees.canonical import (
    Canon,
    canon_removable_paths,
    canon_size,
    canon_without,
    encode_canon,
)
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
        from the key alone — so estimates are bit-identical with the
        cache on or off.  Drop the memo with :meth:`clear_cache`
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
        # Sub-twig memo, keyed by canonical form.
        self._shared_memo: dict[Canon, float] | None = {} if shared_cache else None
        # Plan cache: canonical form of the query -> compiled plan.
        self._plans: dict[Canon, CompiledPlan] = {}

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

    def _kernel_batch_scope(self) -> ContextManager[None]:
        # Cold compiles in the batch share one memo, as on the plan path.
        return self.batch_cache()

    def _note_kernel_hit(self, key: Canon, plan: "PlanT") -> None:
        if obs.enabled:
            record_plan_request(self.name, "hit", len(self._plans))

    def _estimate_key(self, key: Canon) -> float:
        plan = self._plans.get(key)
        if plan is not None:
            if not obs.enabled:
                return plan.evaluate()
            record_plan_request(self.name, "hit", len(self._plans))
            with obs.span("estimate", estimator=self.name, plan="hit") as root_span:
                traced = obs.span_recording()
                if traced:
                    root_span.set(pattern=encode_canon(key))
                with obs.registry.timer(
                    "estimate_seconds", "Per-query estimation wall time."
                ).time() as frame:
                    value = plan.evaluate_traced() if traced else plan.evaluate()
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
        record_plan_request(self.name, "miss", len(self._plans))
        return value

    def _compile(
        self,
        key: Canon,
        size: int,
        memo: dict[Canon, float],
        depth: int,
        builder: PlanBuilder,
    ) -> tuple[float, int]:
        """One recursion node: return ``(estimate, slot holding it)``.

        This *is* the original estimation recursion — same lookups, same
        float operations, same observability — it just records every
        value and operation into ``builder`` as a side effect.  ``key``
        is the sub-twig's canonical form and ``size`` its node count.
        """
        cached = memo.get(key)
        if cached is not None:
            if obs.enabled:
                self._record_memo("hit")
                if obs.span_recording():
                    obs.span_point(
                        "memo_hit", pattern=encode_canon(key), value=cached
                    )
            return cached, builder.slot_of(key, cached)
        if obs.enabled:
            self._record_memo("miss")
        value = self._lookup(key, size)
        if value is None:
            if obs.enabled:
                with obs.span("decompose", size=size, depth=depth) as dspan:
                    if obs.span_recording():
                        dspan.set(pattern=encode_canon(key))
                    value, slot = self._compile_decompose(
                        key, size, memo, depth, builder
                    )
                    dspan.set(value=value)
            else:
                value, slot = self._compile_decompose(
                    key, size, memo, depth, builder
                )
        else:
            slot = builder.const(value)
        memo[key] = value
        builder.name(key, slot)
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
        key: Canon,
        size: int,
        memo: dict[Canon, float],
        depth: int,
        builder: PlanBuilder,
    ) -> tuple[float, int]:
        """Theorem 1 over the leaf pairs of ``key`` (at least 3 nodes).

        Pairs come in :func:`~repro.core.decompose.leaf_pair_decompositions`
        order.  Each ``key - u`` is built once and shared by the pairs
        that drop ``u``; each ``key - u - v`` once per pair.
        """
        total = 0.0
        count = 0
        parts: list[int] = []
        paths = canon_removable_paths(key)
        drop_one: dict[int, Canon] = {}
        for u, v in combinations(range(len(paths)), 2):
            if obs.enabled:
                obs.registry.counter(
                    "decompose_splits_total",
                    "Leaf-pair splits materialised by the decomposers.",
                ).inc()
                obs.span_point("choice", index=count)
            common = canon_without(key, (paths[u], paths[v]))
            denominator, denominator_slot = self._compile(
                common, size - 2, memo, depth + 1, builder
            )
            if denominator <= 0.0:
                # The original recursion never evaluates t1/t2 here, so
                # neither does the compiler; the plan keeps the folded 0.
                estimate = 0.0
                part = builder.const(0.0)
            else:
                t1 = drop_one.get(u)
                if t1 is None:
                    t1 = drop_one[u] = canon_without(key, (paths[u],))
                t2 = drop_one.get(v)
                if t2 is None:
                    t2 = drop_one[v] = canon_without(key, (paths[v],))
                t1_value, t1_slot = self._compile(
                    t1, size - 1, memo, depth + 1, builder
                )
                t2_value, t2_slot = self._compile(
                    t2, size - 1, memo, depth + 1, builder
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
            obs.event("decompose_step", size=size, depth=depth, fanout=count)
        if not count:
            return 0.0, builder.const(0.0)
        return total / count, builder.average(parts)

    def __repr__(self) -> str:
        return (
            f"RecursiveDecompositionEstimator(level={self.lattice.level}, "
            f"voting={self.voting})"
        )
