"""Markov path estimator: the special case TreeLattice generalises.

Lemma 4 of the paper shows that on *linear path* queries both
decomposition schemes collapse to the classical ``m``-gram Markov
estimator used by Lore, Markov tables and XPathLearner:

    ŝ(t1/.../tn)  =  s(t1..tm) * Π_{i=2}^{n-m+1}  s(t_i .. t_{i+m-1})
                                                / s(t_i .. t_{i+m-2})

This module implements that closed form directly on top of the lattice
summary (whose path-shaped patterns *are* the Markov statistics).  It is
used by the Lemma 4 equivalence tests and by the path-selectivity
ablation benchmarks; it rejects branching queries by design.

The first estimate of each path compiles the gram products into a
:class:`~repro.core.plan.GramPlan`, cached under the path's canonical
form; repeated paths replay the plan.  Error cases are never cached: a
branching query raises ``ValueError`` and a pruned gram raises
``KeyError`` during compilation, leaving no plan behind, so both raise
again on every call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .. import obs

if TYPE_CHECKING:
    from ..kernels.program import PlanT
from ..trees.canonical import Canon, canon_children, canon_label
from .estimator import KeyedEstimator
from .lattice import LatticeSummary
from .plan import GramPlan, record_plan_request


def _record_gram(outcome: str, labels: list[str]) -> None:
    """Metrics + trace + span for one m-gram lookup (when enabled)."""
    if not obs.enabled:  # call sites check too; this is defence in depth
        return
    obs.registry.counter(
        "markov_gram_lookups_total",
        "Markov m-gram path lookups by outcome.",
        labels=("outcome",),
    ).inc(outcome=outcome)
    path = "/".join(labels)
    obs.event(
        "markov_gram_lookup", outcome=outcome, path=path, length=len(labels)
    )
    obs.span_point(
        "markov_gram_lookup", outcome=outcome, path=path, length=len(labels)
    )


def _path_canon(labels: list[str]) -> Canon:
    """Canonical form of the linear path with these labels."""
    node: Canon = (labels[-1], ())
    for label in reversed(labels[:-1]):
        node = (label, (node,))
    return node


__all__ = ["MarkovPathEstimator"]


class MarkovPathEstimator(KeyedEstimator):
    """Closed-form Markov estimator for linear path queries.

    Parameters
    ----------
    lattice:
        Summary holding path statistics (any :class:`LatticeSummary`;
        paths are just linear patterns).  Treated as immutable; compiled
        gram plans bake its counts in.
    order:
        Markov window size ``m``; defaults to the lattice level.
    """

    name = "markov-path"

    def __init__(self, lattice: LatticeSummary, *, order: int | None = None) -> None:
        if order is None:
            order = lattice.level
        if not 2 <= order <= lattice.level:
            raise ValueError(
                f"order must be in [2, {lattice.level}], got {order}"
            )
        self.lattice = lattice
        self.order = order
        self._plans: dict[Canon, GramPlan] = {}

    def clear_cache(self) -> None:
        """Drop compiled gram plans."""
        self._plans.clear()
        if self._kernels is not None:
            self._kernels.clear()

    # ------------------------------------------------------------------
    # Kernel batch hooks (see KeyedEstimator._estimate_keys_kernel)
    # ------------------------------------------------------------------

    supports_kernels = True

    def _kernel_probe(self, key: Canon) -> "PlanT | None":
        return self._plans.get(key)

    def _kernel_warm_plans(self) -> Sequence[tuple[Canon, "PlanT"]]:
        return list(self._plans.items())

    def _note_kernel_hit(self, key: Canon, plan: "PlanT") -> None:
        if obs.enabled:
            record_plan_request(self.name, "hit", len(self._plans))

    def _estimate_key(self, key: Canon) -> float:
        # Only paths ever compile, so a branching key always misses and
        # is rejected below, warm or cold.
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
            return value
        labels = self._path_labels(key)
        if not obs.enabled:
            value, plan = self._compile_path(labels)
            self._plans[key] = plan
            return value
        with obs.span("estimate", estimator=self.name, plan="miss") as root_span:
            with obs.registry.timer(
                "estimate_seconds", "Per-query estimation wall time."
            ).time() as frame:
                value, plan = self._compile_path(labels)
            root_span.set(value=value)
        obs.registry.quantile(
            "estimate_latency_seconds",
            "Per-query estimation latency quantiles.",
        ).observe(frame.elapsed)
        self._plans[key] = plan
        record_plan_request(self.name, "miss", len(self._plans))
        return value

    def _compile_path(self, labels: list[str]) -> tuple[float, GramPlan]:
        """The original closed form, recording each gram as it goes."""
        m = self.order
        if len(labels) <= m:
            head = self._path_count(labels)
            return float(head), GramPlan(head, (), False)
        head = self._path_count(labels[:m])
        estimate = float(head)
        steps: list[tuple[int, int]] = []
        for i in range(1, len(labels) - m + 1):
            window = labels[i : i + m]
            overlap = labels[i : i + m - 1]
            overlap_count = self._path_count(overlap)
            if overlap_count == 0:
                return 0.0, GramPlan(head, tuple(steps), True)
            window_count = self._path_count(window)
            estimate *= window_count / overlap_count
            steps.append((window_count, overlap_count))
        return estimate, GramPlan(head, tuple(steps), False)

    @staticmethod
    def _path_labels(key: Canon) -> list[str]:
        labels: list[str] = []
        node = key
        while True:
            labels.append(canon_label(node))
            kids = canon_children(node)
            if not kids:
                return labels
            if len(kids) > 1:
                raise ValueError(
                    "MarkovPathEstimator only handles linear path queries; "
                    "use the decomposition estimators for branching twigs"
                )
            node = kids[0]

    def _path_count(self, labels: list[str]) -> int:
        stored = self.lattice.get(_path_canon(labels))
        if stored is not None:
            if obs.enabled:
                _record_gram("hit", labels)
            return stored
        if self.lattice.is_complete_at(len(labels)):
            if obs.enabled:
                _record_gram("complete_zero", labels)
            return 0
        if obs.enabled:
            _record_gram("pruned_miss", labels)
        raise KeyError(
            f"path {'/'.join(labels)} pruned from an incomplete lattice level; "
            "Markov estimation needs the full path statistics"
        )

    def __repr__(self) -> str:
        return f"MarkovPathEstimator(order={self.order})"
