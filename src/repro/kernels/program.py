"""Flat int-array kernel programs lowered from compiled decomposition plans.

A :class:`KernelProgram` is the flat-array form of one per-shape plan
(:class:`~repro.core.plan.CompiledPlan`, ``CoverPlan`` or ``GramPlan``):
a constant slot vector (``array('d')``), an opcode stream
(``array('B')``) and a packed operand table (``array('l')``).  Ops are
*level-scheduled* at lowering time — stably sorted by dataflow depth so
every op only reads slots produced at strictly lower levels.  The numpy
executor (:mod:`repro.kernels.exec_numpy`) uses the level boundaries to
evaluate whole batches one ``(level, opcode, arity)`` column group at a
time.

Bit-identity with legacy plan replay is the design constraint, not a
goal: every opcode reproduces the exact scalar float sequence of the
plan it was lowered from (see the per-opcode notes below), and the
stable level sort never reorders the operands *within* an op, so the
left-to-right accumulation order of ``AVG`` is preserved.

Opcodes::

    RATIO dst, (t1, t2, common)   # Theorem 1 step, denominator<=0 guard
    AVG   dst, parts              # voting average, accumulated in order
    MUL   dst, (a, b)             # cover / gram chain step
    DIV   dst, (a, b)             # cover numerator / denominator

``GramPlan``'s ``window / overlap`` divides Python *ints* (correctly
rounded true division, which differs from ``float(w) / float(o)`` once
counts exceed 2**53), so the lowerer precomputes each gram ratio as a
base constant and emits ``MUL`` — the executor never re-divides.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from ..core.plan import CompiledPlan, CoverPlan, GramPlan

    PlanT = Union[CompiledPlan, CoverPlan, GramPlan]

__all__ = [
    "OP_RATIO",
    "OP_AVG",
    "OP_MUL",
    "OP_DIV",
    "KernelProgram",
    "lower_plan",
]

OP_RATIO = 0
OP_AVG = 1
OP_MUL = 2
OP_DIV = 3

_OpList = list[tuple[int, int, tuple[int, ...]]]


class KernelProgram:
    """One lowered plan: constants + a level-scheduled flat op stream.

    Attributes are plain stdlib arrays so programs pickle to a few
    contiguous buffers — cheap enough to ship once per worker process
    and reuse across every chunk (:mod:`repro.parallel.batch`).

    * ``base`` — ``array('d')`` initial slot vector; ops overwrite
      their ``dst`` slot in place, exactly like plan replay.
    * ``opcodes`` / ``dsts`` — per-op opcode and destination slot.
    * ``args`` / ``arg_offsets`` — packed operand slots; op ``i`` reads
      ``args[arg_offsets[i]:arg_offsets[i + 1]]``.
    * ``level_offsets`` — op-index boundaries of each dataflow level
      (ops within a level are independent of each other).
    * ``root`` — slot holding the estimate after execution.
    """

    __slots__ = ("base", "opcodes", "dsts", "args", "arg_offsets", "level_offsets", "root")

    def __init__(
        self,
        base: "array[float]",
        opcodes: "array[int]",
        dsts: "array[int]",
        args: "array[int]",
        arg_offsets: "array[int]",
        level_offsets: "array[int]",
        root: int,
    ) -> None:
        self.base = base
        self.opcodes = opcodes
        self.dsts = dsts
        self.args = args
        self.arg_offsets = arg_offsets
        self.level_offsets = level_offsets
        self.root = root

    @property
    def num_ops(self) -> int:
        return len(self.opcodes)

    @property
    def num_levels(self) -> int:
        return len(self.level_offsets) - 1

    def __getstate__(
        self,
    ) -> tuple[
        "array[float]",
        "array[int]",
        "array[int]",
        "array[int]",
        "array[int]",
        "array[int]",
        int,
    ]:
        return (
            self.base,
            self.opcodes,
            self.dsts,
            self.args,
            self.arg_offsets,
            self.level_offsets,
            self.root,
        )

    def __setstate__(
        self,
        state: tuple[
            "array[float]",
            "array[int]",
            "array[int]",
            "array[int]",
            "array[int]",
            "array[int]",
            int,
        ],
    ) -> None:
        (
            self.base,
            self.opcodes,
            self.dsts,
            self.args,
            self.arg_offsets,
            self.level_offsets,
            self.root,
        ) = state

    def __repr__(self) -> str:
        return (
            f"KernelProgram(slots={len(self.base)}, ops={self.num_ops}, "
            f"levels={self.num_levels})"
        )


def _finalize(base: Sequence[float], ops: _OpList, root: int) -> KernelProgram:
    """Level-schedule ``ops`` and pack everything into flat arrays.

    An op's level is ``1 + max(level of its operand slots)`` (base
    constants are level 0).  Plan builders only ever emit an op after
    the ops producing its operands, so one forward pass assigns levels;
    the sort is stable, preserving original op order within a level.
    Levels are contiguous (an op at level L+1 needs an operand written
    at level L), so boundaries fall wherever the level increments.
    """
    slot_level = [0] * len(base)
    op_levels: list[int] = []
    for _opcode, dst, operands in ops:
        level = 0
        for slot in operands:
            if slot_level[slot] > level:
                level = slot_level[slot]
        level += 1
        slot_level[dst] = level
        op_levels.append(level)
    order = sorted(range(len(ops)), key=op_levels.__getitem__)

    opcodes = array("B")
    dsts = array("l")
    args = array("l")
    arg_offsets = array("l", [0])
    level_offsets = array("l", [0])
    previous_level = 1
    for rank, index in enumerate(order):
        opcode, dst, operands = ops[index]
        if op_levels[index] != previous_level:
            level_offsets.append(rank)
            previous_level = op_levels[index]
        opcodes.append(opcode)
        dsts.append(dst)
        args.extend(operands)
        arg_offsets.append(len(args))
    level_offsets.append(len(ops))
    return KernelProgram(
        array("d", base), opcodes, dsts, args, arg_offsets, level_offsets, root
    )


def _lower_compiled(plan: "CompiledPlan") -> KernelProgram:
    """Recursive/voting plans translate op-for-op (RATIO / AVG)."""
    from ..core.plan import AVG_OP, RATIO_OP

    base, plan_ops, root = plan.kernel_parts()
    ops: _OpList = []
    for opcode, dst, operands in plan_ops:
        if opcode == RATIO_OP:
            ops.append((OP_RATIO, dst, operands))
        elif opcode == AVG_OP:
            ops.append((OP_AVG, dst, operands))
        else:  # pragma: no cover - no other plan opcodes exist
            raise ValueError(f"unknown plan opcode {opcode!r}")
    return _finalize(base, ops, root)


def _lower_cover(plan: "CoverPlan") -> KernelProgram:
    """Fix-sized cover: two 1.0-seeded MUL chains and a final DIV.

    Mirrors ``CoverPlan.evaluate`` exactly, including the leading
    ``1.0 * first_factor`` multiply and the short-circuit cases
    (direct lookup / zero block), which lower to constant programs.
    """
    if plan.blocks is None:
        return _finalize([plan.factors[0][0]], [], 0)
    if plan.zero:
        return _finalize([0.0], [], 0)
    base: list[float] = [1.0, 1.0]
    ops: _OpList = []
    numerator = 0
    denominator = 1
    for block, overlap in plan.factors:
        base.append(block)
        base.append(0.0)
        ops.append((OP_MUL, len(base) - 1, (numerator, len(base) - 2)))
        numerator = len(base) - 1
        if overlap is not None:
            base.append(overlap)
            base.append(0.0)
            ops.append((OP_MUL, len(base) - 1, (denominator, len(base) - 2)))
            denominator = len(base) - 1
    base.append(0.0)
    ops.append((OP_DIV, len(base) - 1, (numerator, denominator)))
    return _finalize(base, ops, len(base) - 1)


def _lower_gram(plan: "GramPlan") -> KernelProgram:
    """Markov path: head constant times precomputed gram ratios.

    ``GramPlan.evaluate`` divides Python ints (``window / overlap``),
    whose correctly-rounded result can differ from dividing the floats;
    the ratio is therefore computed *here*, once, and baked in as a
    constant so the MUL chain replays the identical float sequence.
    """
    if plan.zero:
        return _finalize([0.0], [], 0)
    base: list[float] = [float(plan.head)]
    ops: _OpList = []
    accumulator = 0
    for window, overlap in plan.steps:
        base.append(window / overlap)
        base.append(0.0)
        ops.append((OP_MUL, len(base) - 1, (accumulator, len(base) - 2)))
        accumulator = len(base) - 1
    return _finalize(base, ops, accumulator)


def lower_plan(plan: "PlanT") -> KernelProgram:
    """Lower any compiled decomposition plan to a flat kernel program."""
    from ..core.plan import CompiledPlan, CoverPlan, GramPlan

    if isinstance(plan, CompiledPlan):
        return _lower_compiled(plan)
    if isinstance(plan, CoverPlan):
        return _lower_cover(plan)
    if isinstance(plan, GramPlan):
        return _lower_gram(plan)
    raise TypeError(f"cannot lower {type(plan).__name__} to a kernel program")
