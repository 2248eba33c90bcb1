"""Compiled decomposition plans: reusable estimate programs per twig shape.

Estimating a twig is a pure function of ``(canonical form, summary)``:
the decomposition recursion (paper §3.2), the fix-sized cover (§3.3) and
the Markov closed form (Lemma 4) all bottom out in summary lookups whose
values never change while the estimator is alive.  The estimators
therefore *compile* the first evaluation of each canonical shape into a
small plan — the summary lookups resolved to constants, the arithmetic
recorded as a DAG of multiply/divide/average ops — and replay that plan
on every later query with the same shape.  ``estimate_batch`` over a
repeated-shape workload then pays tree decomposition once per distinct
shape instead of once per query.

Plan evaluation replays the *exact* float operations of the original
recursion, in the same order, so warm-path estimates are bit-identical
to cold-path ones (an invariant the test suite asserts, not a rounding
nicety).  Plans are plain picklable values: estimators shipped to worker
processes (:mod:`repro.parallel.batch`) carry their compiled plans with
them.

Plans are keyed by the query's canonical form and compiled from that
key alone, so every plan is a function of its key.  A recursive plan
holds one slot per distinct sub-twig it computes: when the recursion
meets a sub-twig the plan already holds, it reuses that slot.  A replay
computes the query's estimate and nothing else; it fills no memo.
Cache traffic is exported via :mod:`repro.obs` as
``plan_cache_requests_total`` plus the ``plan_cache_size`` gauge.
"""

from __future__ import annotations

from typing import Sequence

from .. import obs
from ..trees.canonical import Canon

__all__ = [
    "CompiledPlan",
    "PlanBuilder",
    "CoverPlan",
    "GramPlan",
    "record_plan_request",
    "RATIO_OP",
    "AVG_OP",
]

_OP_RATIO = 0
_OP_AVG = 1

#: Public aliases for the plan opcodes, consumed by the kernel lowerer
#: (:mod:`repro.kernels.program`) when translating plan ops.
RATIO_OP = _OP_RATIO
AVG_OP = _OP_AVG

_OpsT = tuple[tuple[int, int, tuple[int, ...]], ...]


def record_plan_request(estimator: str, outcome: str, plans: int) -> None:
    """Metrics for one plan-cache probe (only called when obs is on)."""
    if not obs.enabled:  # call sites check too; this is defence in depth
        return
    obs.registry.counter(
        "plan_cache_requests_total",
        "Compiled-plan cache probes by outcome (hit / miss).",
        labels=("estimator", "outcome"),
    ).inc(estimator=estimator, outcome=outcome)
    obs.registry.gauge(
        "plan_cache_size",
        "Compiled plans held per estimator instance (last probe wins).",
        labels=("estimator",),
    ).set(plans, estimator=estimator)


class CompiledPlan:
    """A recursive-decomposition estimate as a replayable op sequence.

    Slots ``0..len(base)-1`` hold constants (summary lookups and values
    that were already memoised at compile time); every op writes one new
    slot.  Two opcodes cover the whole recursion:

    * ``RATIO dst, (t1, t2, common)`` — Theorem 1's step, with the
      original ``denominator <= 0.0 -> 0.0`` guard;
    * ``AVG dst, parts`` — the voting average, accumulated in split
      order (a single-part average reproduces the non-voting path
      exactly: ``(0.0 + r) / 1 == r``).
    """

    __slots__ = ("_base", "_ops", "root", "max_depth")

    def __init__(
        self,
        base: Sequence[float],
        ops: _OpsT,
        root: int,
        max_depth: int,
    ) -> None:
        self._base = list(base)
        self._ops = ops
        #: Slot holding the query's estimate after evaluation.
        self.root = root
        #: Deepest decomposition level of the original recursion (what a
        #: cold run would have reported as ``recursion_depth``).
        self.max_depth = max_depth

    def evaluate(self) -> float:
        """Replay the plan."""
        slots = list(self._base)
        for opcode, dst, operands in self._ops:
            if opcode == _OP_RATIO:
                t1, t2, common = operands
                denominator = slots[common]
                if denominator <= 0.0:
                    slots[dst] = 0.0
                else:
                    slots[dst] = slots[t1] * slots[t2] / denominator
            else:
                total = 0.0
                for part in operands:
                    total += slots[part]
                slots[dst] = total / len(operands)
        return slots[self.root]

    def evaluate_traced(self) -> float:
        """Replay the plan, emitting one ``plan_step`` span point per op.

        Same float operations in the same order as :meth:`evaluate` —
        the flight recorder observes the replay, it never changes it.
        Called by the estimators only when the current estimate's root
        span was sampled in (``obs.span_recording()``).  The tracer's
        bound ``point`` method is hoisted out of the op loop: plans run
        to hundreds of ops, and the per-op module-attribute walk is the
        difference between a cheap and a costly sampled estimate.
        """
        if not obs.enabled:
            return self.evaluate()
        tracer = obs.span_tracer
        if tracer is None:
            return self.evaluate()
        point = tracer.point
        slots = list(self._base)
        for opcode, dst, operands in self._ops:
            if opcode == _OP_RATIO:
                t1, t2, common = operands
                denominator = slots[common]
                if denominator <= 0.0:
                    slots[dst] = 0.0
                else:
                    slots[dst] = slots[t1] * slots[t2] / denominator
                point(
                    "plan_step",
                    op="ratio",
                    t1=slots[t1],
                    t2=slots[t2],
                    common=denominator,
                    value=slots[dst],
                )
            else:
                total = 0.0
                for part in operands:
                    total += slots[part]
                slots[dst] = total / len(operands)
                point(
                    "plan_step",
                    op="average",
                    parts=len(operands),
                    value=slots[dst],
                )
        return slots[self.root]

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def kernel_parts(self) -> tuple[list[float], _OpsT, int]:
        """``(base, ops, root)`` for kernel lowering.

        The returned base list is the live slot vector — callers must
        copy, never mutate (the kernel lowerer snapshots it into its own
        ``array('d')``).
        """
        return (self._base, self._ops, self.root)

    def __getstate__(self) -> tuple[list[float], _OpsT, int, int]:
        return (self._base, self._ops, self.root, self.max_depth)

    def __setstate__(self, state: tuple[list[float], _OpsT, int, int]) -> None:
        self._base, self._ops, self.root, self.max_depth = state

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(slots={len(self._base)}, ops={len(self._ops)}, "
            f"depth={self.max_depth})"
        )


class PlanBuilder:
    """Accumulates slots and ops while the cold-path recursion runs.

    The builder also names the slot of every sub-twig key the plan
    holds, so a sub-twig that recurs inside one plan gets one slot.
    """

    __slots__ = ("_values", "_ops", "_named")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._ops: list[tuple[int, int, tuple[int, ...]]] = []
        self._named: dict[Canon, int] = {}

    def const(self, value: float) -> int:
        """New slot pre-loaded with ``value``; returns its index."""
        self._values.append(value)
        return len(self._values) - 1

    def ratio(self, t1: int, t2: int, common: int) -> int:
        """Theorem 1 step over three existing slots; returns the result slot."""
        dst = self.const(0.0)
        self._ops.append((_OP_RATIO, dst, (t1, t2, common)))
        return dst

    def average(self, parts: Sequence[int]) -> int:
        """Voting average over per-split slots; returns the result slot."""
        dst = self.const(0.0)
        self._ops.append((_OP_AVG, dst, tuple(parts)))
        return dst

    def name(self, key: Canon, slot: int) -> None:
        """Record that ``slot`` holds the estimate of sub-twig ``key``."""
        self._named[key] = slot

    def slot_of(self, key: Canon, value: float) -> int:
        """The slot holding ``key``'s estimate ``value``, made if absent.

        A key computed earlier in this plan keeps its slot; a key known
        only from a memo shared with other plans gets one constant slot.
        """
        slot = self._named.get(key)
        if slot is None:
            slot = self._named[key] = self.const(value)
        return slot

    def build(self, root: int, max_depth: int) -> CompiledPlan:
        return CompiledPlan(self._values, tuple(self._ops), root, max_depth)


class CoverPlan:
    """A fix-sized cover estimate (§3.3) with its factors pre-resolved.

    ``blocks is None`` marks the small-twig shortcut (the twig fits in
    one lattice lookup and ``factors[0][0]`` is the answer).  Otherwise
    ``factors`` holds one ``(block_count, overlap_count | None)`` pair
    per cover piece, truncated at the piece whose count was zero when
    ``zero`` is set — replay multiplies in the original piece order.
    """

    __slots__ = ("blocks", "factors", "zero")

    def __init__(
        self,
        blocks: int | None,
        factors: tuple[tuple[float, float | None], ...],
        zero: bool,
    ) -> None:
        self.blocks = blocks
        self.factors = factors
        self.zero = zero

    def evaluate(self) -> float:
        if self.blocks is None:
            return self.factors[0][0]
        if self.zero:
            return 0.0
        numerator = 1.0
        denominator = 1.0
        for block, overlap in self.factors:
            numerator *= block
            if overlap is not None:
                denominator *= overlap
        return numerator / denominator

    def evaluate_traced(self) -> float:
        """Replay with one ``plan_step`` span point per cover factor."""
        if not obs.enabled:
            return self.evaluate()
        tracer = obs.span_tracer
        if tracer is None:
            return self.evaluate()
        point = tracer.point
        if self.blocks is None:
            value = self.factors[0][0]
            point("plan_step", op="direct", value=value)
            return value
        numerator = 1.0
        denominator = 1.0
        for block, overlap in self.factors:
            numerator *= block
            if overlap is not None:
                denominator *= overlap
            point("plan_step", op="cover_factor", block=block, overlap=overlap)
        if self.zero:
            point("plan_step", op="zero_block", value=0.0)
            return 0.0
        return numerator / denominator

    def __getstate__(
        self,
    ) -> tuple[int | None, tuple[tuple[float, float | None], ...], bool]:
        return (self.blocks, self.factors, self.zero)

    def __setstate__(
        self,
        state: tuple[int | None, tuple[tuple[float, float | None], ...], bool],
    ) -> None:
        self.blocks, self.factors, self.zero = state

    def __repr__(self) -> str:
        return (
            f"CoverPlan(blocks={self.blocks}, factors={len(self.factors)}, "
            f"zero={self.zero})"
        )


class GramPlan:
    """A Markov path estimate (Lemma 4) with its gram counts pre-resolved.

    ``head`` is the leading ``m``-gram count; ``steps`` the sliding
    ``(window_count, overlap_count)`` pairs.  ``zero`` marks a path
    whose first zero overlap short-circuited the original loop.
    """

    __slots__ = ("head", "steps", "zero")

    def __init__(
        self, head: int, steps: tuple[tuple[int, int], ...], zero: bool
    ) -> None:
        self.head = head
        self.steps = steps
        self.zero = zero

    def evaluate(self) -> float:
        if self.zero:
            return 0.0
        estimate = float(self.head)
        for window, overlap in self.steps:
            estimate *= window / overlap
        return estimate

    def evaluate_traced(self) -> float:
        """Replay with one ``plan_step`` span point per gram ratio."""
        if not obs.enabled:
            return self.evaluate()
        tracer = obs.span_tracer
        if tracer is None:
            return self.evaluate()
        point = tracer.point
        point("plan_step", op="head_gram", value=float(self.head))
        if self.zero:
            point("plan_step", op="zero_overlap", value=0.0)
            return 0.0
        estimate = float(self.head)
        for window, overlap in self.steps:
            estimate *= window / overlap
            point(
                "plan_step",
                op="gram_ratio",
                window=window,
                overlap=overlap,
                value=estimate,
            )
        return estimate

    def __getstate__(self) -> tuple[int, tuple[tuple[int, int], ...], bool]:
        return (self.head, self.steps, self.zero)

    def __setstate__(
        self, state: tuple[int, tuple[tuple[int, int], ...], bool]
    ) -> None:
        self.head, self.steps, self.zero = state

    def __repr__(self) -> str:
        return (
            f"GramPlan(head={self.head}, steps={len(self.steps)}, "
            f"zero={self.zero})"
        )
