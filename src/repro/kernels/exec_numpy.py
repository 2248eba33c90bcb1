"""Numpy kernel executor: whole-batch vectorised column ops.

The ``"numpy"`` backend concatenates every program's slot vector in a
batch into one float64 array and pre-groups ops by ``(level, opcode,
arity)`` across programs.  Executing the batch is then a handful of
column gathers and elementwise ops per group instead of a Python-level
loop per plan op — the index arrays (the expensive part) are built once
per distinct batch shape and cached by :class:`~repro.kernels.KernelState`.

Bit-identity with scalar plan replay is engineered per opcode:

* elementwise ``*``, ``/`` and ``+`` on float64 are the IEEE-754 ops
  CPython's scalar arithmetic performs, so MUL / DIV / the RATIO
  product match trivially;
* RATIO's guard selects lanes with ``~(den <= 0.0)`` — the *same
  predicate* as the scalar branch, so a NaN denominator divides (NaN)
  rather than zeroing, exactly like plan replay;
* AVG accumulates its parts sequentially (one ``+=`` per operand
  column, left to right, starting from zeros) — **not** ``np.sum``,
  whose pairwise summation rounds differently — then divides by the
  part count.

This module is only imported once a batch actually runs on the numpy
backend; :mod:`repro.kernels.backend` decides availability.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .program import OP_AVG, OP_MUL, OP_RATIO, KernelProgram

__all__ = ["PreparedBatch", "prepare_batch"]


class PreparedBatch:
    """Index arrays for one batch shape, reusable across executions.

    ``_steps`` holds one entry per ``(level, opcode, arity)`` group, in
    ascending level order: ``(opcode, arity, dst_index_array,
    args_index_matrix)`` where the matrix is ``(ops_in_group, arity)``.
    Groups at the same level never read each other's outputs (an op's
    operands live at strictly lower levels), so any order within a
    level is valid; sorting the keys keeps it deterministic.
    """

    __slots__ = ("_base", "_roots", "_steps", "num_ops")

    def __init__(self, programs: list[KernelProgram]) -> None:
        offsets: list[int] = []
        total = 0
        for program in programs:
            offsets.append(total)
            total += len(program.base)
        base = np.empty(total, dtype=np.float64)
        for program, offset in zip(programs, offsets):
            base[offset : offset + len(program.base)] = np.frombuffer(
                program.base, dtype=np.float64
            )
        groups: dict[tuple[int, int, int], tuple[list[int], list[list[int]]]] = {}
        num_ops = 0
        for program, offset in zip(programs, offsets):
            bounds = program.level_offsets
            arg_offsets = program.arg_offsets
            args = program.args
            num_ops += program.num_ops
            for level in range(len(bounds) - 1):
                for i in range(bounds[level], bounds[level + 1]):
                    start = arg_offsets[i]
                    end = arg_offsets[i + 1]
                    key = (level, program.opcodes[i], end - start)
                    entry = groups.get(key)
                    if entry is None:
                        entry = ([], [])
                        groups[key] = entry
                    entry[0].append(offset + program.dsts[i])
                    entry[1].append([offset + args[j] for j in range(start, end)])
        steps: list[tuple[int, int, Any, Any]] = []
        for key in sorted(groups):
            _level, opcode, arity = key
            dst_rows, arg_rows = groups[key]
            steps.append(
                (
                    opcode,
                    arity,
                    np.asarray(dst_rows, dtype=np.intp),
                    np.asarray(arg_rows, dtype=np.intp),
                )
            )
        self._base = base
        self._roots = np.asarray(
            [offset + program.root for program, offset in zip(programs, offsets)],
            dtype=np.intp,
        )
        self._steps = steps
        self.num_ops = num_ops

    def run(self) -> list[float]:
        """Execute the batch; returns root values in query order."""
        slots = self._base.copy()
        for opcode, arity, dst_index, arg_index in self._steps:
            if opcode == OP_RATIO:
                denominator = slots[arg_index[:, 2]]
                result = np.zeros(len(dst_index), dtype=np.float64)
                np.divide(
                    slots[arg_index[:, 0]] * slots[arg_index[:, 1]],
                    denominator,
                    out=result,
                    where=np.logical_not(denominator <= 0.0),
                )
                slots[dst_index] = result
            elif opcode == OP_AVG:
                total = np.zeros(len(dst_index), dtype=np.float64)
                for column in range(arity):
                    total += slots[arg_index[:, column]]
                slots[dst_index] = total / arity
            elif opcode == OP_MUL:
                slots[dst_index] = slots[arg_index[:, 0]] * slots[arg_index[:, 1]]
            else:
                slots[dst_index] = slots[arg_index[:, 0]] / slots[arg_index[:, 1]]
        return [float(value) for value in slots[self._roots]]


def prepare_batch(programs: list[KernelProgram]) -> PreparedBatch:
    """Build the concatenated, level-grouped index arrays for a batch."""
    return PreparedBatch(programs)
