"""Fix-sized decomposition estimator (paper §3.3, Lemmas 2-3).

Cover the twig ``T`` (size ``n``) with exactly ``n - k + 1`` subtrees of
size ``k`` in canonical pre-order.  Consecutive blocks overlap the
already-covered prefix in a ``(k-1)``-subtree, so under the conditional
independence assumption

    s(T)  ≈  Π s(B_i)  /  Π s(B_i ∩ prefix_i)

where every factor is a direct lattice lookup (no recursion) — which is
why this estimator is the fastest of the family, at some accuracy cost
on large twigs because its overlaps are smaller than the recursive
scheme's maximal ones.

The first estimate of each canonical shape compiles the cover of its
canonical instance into a :class:`~repro.core.plan.CoverPlan` (every
factor pre-resolved against the summary, including recursive fallbacks
for pruned blocks), cached under the canonical form; repeated shapes
replay the factor products without re-deriving the cover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager, Sequence

if TYPE_CHECKING:
    from ..kernels.program import PlanT

from .. import obs
from ..trees.canonical import Canon, canon, canon_size, canon_to_tree, encode_canon
from ..trees.labeled_tree import LabeledTree
from .decompose import fixed_cover
from .estimator import KeyedEstimator
from .lattice import LatticeSummary
from .plan import CoverPlan, record_plan_request
from .recursive import RecursiveDecompositionEstimator, _record_lookup

__all__ = ["FixedDecompositionEstimator"]


class FixedDecompositionEstimator(KeyedEstimator):
    """TreeLattice's fix-sized decomposition estimator.

    Parameters
    ----------
    lattice:
        The summary to draw block counts from (treated as immutable;
        compiled cover plans bake its counts in).
    block_size:
        Size ``k`` of covering blocks; defaults to the lattice level
        (the largest size with direct counts).
    """

    name = "fix-sized decomp"

    def __init__(self, lattice: LatticeSummary, *, block_size: int | None = None) -> None:
        if block_size is None:
            block_size = lattice.level
        if not 2 <= block_size <= lattice.level:
            raise ValueError(
                f"block_size must be in [2, {lattice.level}], got {block_size}"
            )
        self.lattice = lattice
        self.block_size = block_size
        # Pruned summaries can lack a block's count; the recursive
        # estimator reconstructs it from what remains.
        self._fallback = RecursiveDecompositionEstimator(lattice)
        self._plans: dict[Canon, CoverPlan] = {}

    def clear_cache(self) -> None:
        """Drop compiled cover plans (and the fallback's caches)."""
        self._plans.clear()
        self._fallback.clear_cache()
        if self._kernels is not None:
            self._kernels.clear()

    def _estimate_keys(self, keys: Sequence[Canon]) -> list[float]:
        """Batch hook: pruned-block fallbacks share one memo per batch."""
        with self._fallback.batch_cache():
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
        # Cold covers fall back to the recursive estimator for pruned
        # blocks; share its memo across the batch, exactly like the
        # legacy batch hook.
        return self._fallback.batch_cache()

    def _note_kernel_hit(self, key: Canon, plan: "PlanT") -> None:
        assert isinstance(plan, CoverPlan)
        if obs.enabled:
            record_plan_request(self.name, "hit", len(self._plans))
            if plan.blocks is not None:
                self._record_cover(canon_size(key), plan.blocks)

    def _estimate_key(self, key: Canon) -> float:
        plan = self._plans.get(key)
        if plan is not None:
            if not obs.enabled:
                return plan.evaluate()
            record_plan_request(self.name, "hit", len(self._plans))
            with obs.span("estimate", estimator=self.name, plan="hit") as root_span:
                with obs.registry.timer(
                    "estimate_seconds", "Per-query estimation wall time."
                ).time() as frame:
                    value = (
                        plan.evaluate_traced()
                        if obs.span_recording()
                        else plan.evaluate()
                    )
                root_span.set(value=value)
            obs.registry.quantile(
                "estimate_latency_seconds",
                "Per-query estimation latency quantiles.",
            ).observe(frame.elapsed)
            if plan.blocks is not None:
                self._record_cover(canon_size(key), plan.blocks)
            return value
        if not obs.enabled:
            value, plan = self._compile_cover(canon_to_tree(key))
            self._plans[key] = plan
            return value
        with obs.span("estimate", estimator=self.name, plan="miss") as root_span:
            with obs.registry.timer(
                "estimate_seconds", "Per-query estimation wall time."
            ).time() as frame:
                value, plan = self._compile_cover(canon_to_tree(key))
            root_span.set(value=value)
        obs.registry.quantile(
            "estimate_latency_seconds",
            "Per-query estimation latency quantiles.",
        ).observe(frame.elapsed)
        self._plans[key] = plan
        record_plan_request(self.name, "miss", len(self._plans))
        return value

    def _compile_cover(self, tree: LabeledTree) -> tuple[float, CoverPlan]:
        """The original cover estimate, recording each factor as it goes.

        ``tree`` is the query's canonical instance.
        """
        if tree.size <= self.block_size:
            value = self._pattern_count(tree)
            return value, CoverPlan(None, ((value, None),), False)
        factors: list[tuple[float, float | None]] = []
        numerator = 1.0
        denominator = 1.0
        blocks = 0
        for piece in fixed_cover(tree, self.block_size):
            blocks += 1
            block_count = self._pattern_count(piece.block)
            if block_count <= 0.0:
                self._record_cover(tree.size, blocks)
                return 0.0, CoverPlan(blocks, tuple(factors), True)
            numerator *= block_count
            overlap_count: float | None = None
            if piece.overlap is not None:
                if obs.enabled:
                    obs.registry.counter(
                        "fixed_overlap_lookups_total",
                        "Overlap-subtree counts read by the fix-sized cover.",
                    ).inc()
                overlap_count = self._pattern_count(piece.overlap)
                if overlap_count <= 0.0:
                    self._record_cover(tree.size, blocks)
                    return 0.0, CoverPlan(blocks, tuple(factors), True)
                denominator *= overlap_count
            factors.append((block_count, overlap_count))
        self._record_cover(tree.size, blocks)
        return numerator / denominator, CoverPlan(blocks, tuple(factors), False)

    @staticmethod
    def _record_cover(size: int, blocks: int) -> None:
        if obs.enabled:
            obs.registry.histogram(
                "fixed_cover_blocks", "Covering blocks per fix-sized estimate."
            ).observe(blocks)
            obs.event("fixed_cover", size=size, blocks=blocks)

    def _pattern_count(self, pattern: LabeledTree) -> float:
        key = canon(pattern)
        stored = self.lattice.get(key)
        if stored is not None:
            if obs.enabled:
                _record_lookup("hit", key, pattern.size, float(stored))
            return float(stored)
        if self.lattice.is_complete_at(pattern.size):
            if obs.enabled:
                _record_lookup("complete_zero", key, pattern.size, 0.0)
            return 0.0
        if obs.enabled:
            _record_lookup("pruned_miss", key, pattern.size)
            # The nested recursive estimate below opens its own child
            # span; this point marks *why* it runs (δ-pruning fallback).
            obs.span_point(
                "pruned_fallback",
                pattern=encode_canon(key),
                size=pattern.size,
            )
        return self._fallback._estimate_key(key)

    def __repr__(self) -> str:
        return f"FixedDecompositionEstimator(k={self.block_size})"
