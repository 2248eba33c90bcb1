"""Round-based retry engine for process-pool chunk fan-outs.

:func:`run_chunks` is the single choke point the batched-estimation
fan-out (:mod:`repro.parallel.batch`) submits through.  It owns the
failure discipline so the call site keeps only its domain logic:

* every chunk is submitted through an :class:`ExecutorSupervisor`
  (a rebuildable pool handle) and collected **in submission order** —
  never ``as_completed`` — so merged results stay bit-identical to the
  serial path no matter how many retries happened;
* a ``BrokenProcessPool`` (worker crash) or a per-attempt timeout
  (hung worker) tears the pool down, rebuilds it, and re-submits *only
  the chunks that never produced a result* — completed chunks are kept;
* each chunk has a retry budget (:class:`~repro.resilience.retry.
  RetryPolicy`); recovery rounds back off exponentially (capped) and
  the whole run can carry a deadline;
* an exhausted budget either degrades the remaining chunks to the
  caller's ``serial_fallback`` (recorded via ``degraded_mode`` and the
  process-local health ledger) or raises a chained
  :class:`~repro.resilience.retry.RetryBudgetExhausted` naming the
  chunk;
* when a :class:`~repro.resilience.faults.FaultPlan` is active, every
  submission draws against it and a matching command ships with the
  task (executed worker-side by :func:`~repro.resilience.faults.
  execute_fault`) — chaos tests and the CI fault matrix drive this.

Chunk functions are pure in the worker-purity sense (results depend
only on the task arguments), so a retried or degraded chunk returns
exactly the bytes the first attempt would have — the engine can only
change *when* a result arrives, never *what* it is.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Protocol, Sequence, TypeVar

from . import health, record
from .faults import FaultCommand, FaultPlan, active_plan, execute_fault
from .retry import RetryBudgetExhausted, RetryPolicy

__all__ = ["ExecutorSupervisor", "RunReport", "run_chunks"]

_T = TypeVar("_T")
_TaskT = TypeVar("_TaskT", bound="tuple[Any, ...]")


class ExecutorSupervisor(Protocol):
    """A rebuildable process-pool handle (see ``parallel.pool``)."""

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> "Future[Any]":
        """Submit a call to the current pool (creating it if needed)."""
        ...  # pragma: no cover - protocol

    def rebuild(self) -> None:
        """Abandon the current pool; the next submit starts a fresh one."""
        ...  # pragma: no cover - protocol


def _faulted_call(
    command: FaultCommand, fn: Callable[..., _T], args: "tuple[Any, ...]"
) -> _T:
    """Worker-side wrapper: execute the injected fault, then the task."""
    execute_fault(command)
    return fn(*args)


@dataclass
class RunReport(Generic[_T]):
    """Outcome of one :func:`run_chunks` call."""

    #: per-chunk results in submission order (fallback results included).
    results: list[_T]
    #: indices of chunks completed through the serial fallback.
    degraded: tuple[int, ...] = ()
    #: chunk re-submissions after failed attempts.
    resubmissions: int = 0
    #: submission rounds executed (1 = no recovery needed).
    rounds: int = 0
    #: pools torn down and rebuilt after crashes / hangs.
    rebuilds: int = 0
    #: fault commands the active plan injected during the run.
    faults_injected: int = 0

    @property
    def degraded_mode(self) -> bool:
        return bool(self.degraded)


@dataclass
class _RunState(Generic[_T]):
    """Mutable bookkeeping for one run (split out for readability)."""

    total: int
    results: dict[int, _T] = field(default_factory=dict)
    attempts: list[int] = field(default_factory=list)
    last_error: dict[int, BaseException] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.attempts = [0] * self.total


def run_chunks(
    fn: Callable[..., _T],
    tasks: Sequence[_TaskT],
    *,
    supervisor: ExecutorSupervisor,
    site: str,
    policy: RetryPolicy,
    serial_fallback: Callable[[_TaskT], _T] | None = None,
    plan: FaultPlan | None = None,
) -> RunReport[_T]:
    """Run ``fn(*task)`` for every task through the supervised pool.

    ``fn`` must be a picklable module-level function (it crosses the
    process boundary); each element of ``tasks`` is its argument tuple.
    ``plan`` overrides fault-plan discovery for direct tests; normal
    call sites leave it ``None`` and inherit the installed/env plan.
    Returns a :class:`RunReport` whose ``results`` align with ``tasks``.
    """
    state: _RunState[_T] = _RunState(len(tasks))
    report: RunReport[_T] = RunReport(results=[])
    if not tasks:
        return report
    active = plan if plan is not None else active_plan()
    started = time.monotonic()
    pending = list(range(state.total))
    exhausted: list[int] = []

    while pending:
        pending, newly_exhausted = _triage(
            pending, state, policy, site, started, can_degrade=serial_fallback is not None
        )
        exhausted.extend(newly_exhausted)
        if not pending:
            break
        recovery_round = report.rounds  # 0 on the first pass
        with record.retry_span(site, recovery_round, len(pending)):
            if recovery_round:
                report.resubmissions += len(pending)
                record.record_retry_round(site, len(pending))
                delay = policy.backoff_for(recovery_round)
                if delay > 0:
                    time.sleep(delay)
            report.rounds += 1
            futures, submit_rebuild = _submit_round(
                fn, tasks, pending, state, supervisor, site, active, report
            )
            collect_rebuild = _collect_round(futures, state, policy)
        if submit_rebuild or collect_rebuild:
            supervisor.rebuild()
            report.rebuilds += 1
            record.record_pool_rebuild(site)
        pending = [index for index in pending if index not in state.results]

    if exhausted:
        record.record_exhausted(site, len(exhausted))
        assert serial_fallback is not None  # _triage raised otherwise
        for index in exhausted:
            state.results[index] = serial_fallback(tasks[index])
        health.note_degraded(site, len(exhausted))
        report.degraded = tuple(exhausted)
    record.record_run_outcome(site, degraded=bool(exhausted))
    report.results = [state.results[index] for index in range(state.total)]
    return report


def _triage(
    pending: list[int],
    state: _RunState[_T],
    policy: RetryPolicy,
    site: str,
    started: float,
    *,
    can_degrade: bool,
) -> tuple[list[int], list[int]]:
    """Split pending chunks into (still runnable, budget exhausted).

    Raises :class:`RetryBudgetExhausted` for the first out-of-budget
    chunk when degradation is unavailable (``fallback=False`` or no
    fallback callable).
    """
    overdue = (
        policy.deadline is not None
        and time.monotonic() - started >= policy.deadline
    )
    runnable: list[int] = []
    exhausted: list[int] = []
    for index in pending:
        if not overdue and state.attempts[index] <= policy.max_retries:
            runnable.append(index)
            continue
        if not (policy.fallback and can_degrade):
            record.record_exhausted(site, 1)
            raise RetryBudgetExhausted(
                site,
                index,
                state.total,
                state.attempts[index],
                cause=state.last_error.get(index),
            ) from state.last_error.get(index)
        exhausted.append(index)
    return runnable, exhausted


def _submit_round(
    fn: Callable[..., _T],
    tasks: Sequence[_TaskT],
    pending: list[int],
    state: _RunState[_T],
    supervisor: ExecutorSupervisor,
    site: str,
    active: FaultPlan | None,
    report: RunReport[_T],
) -> tuple[dict[int, "Future[_T]"], bool]:
    """Submit one attempt per pending chunk; returns (futures, rebuild?)."""
    futures: dict[int, Future[_T]] = {}
    rebuild_needed = False
    for index in pending:
        state.attempts[index] += 1
        command = active.draw(site) if active is not None else None
        if command is not None:
            report.faults_injected += 1
            record.record_fault(site, command.kind)
        try:
            if command is not None and command.kind == "pickle":
                # Simulated at the submission boundary: a real payload
                # that cannot pickle fails before any worker runs.
                raise pickle.PicklingError(
                    f"injected pickling failure at {site!r}"
                )
            if command is not None:
                futures[index] = supervisor.submit(
                    _faulted_call, command, fn, tuple(tasks[index])
                )
            else:
                futures[index] = supervisor.submit(fn, *tasks[index])
        except pickle.PicklingError as exc:
            state.last_error[index] = exc
        except BrokenProcessPool as exc:
            # The pool broke under an earlier submission this round.
            state.last_error[index] = exc
            rebuild_needed = True
    return futures, rebuild_needed


def _collect_round(
    futures: dict[int, "Future[_T]"],
    state: _RunState[_T],
    policy: RetryPolicy,
) -> bool:
    """Collect round results in submission (index) order; rebuild needed?"""
    rebuild_needed = False
    for index in sorted(futures):
        try:
            state.results[index] = futures[index].result(
                timeout=policy.attempt_timeout
            )
        except FutureTimeoutError:
            # The worker may be hung: the attempt is charged to the
            # chunk and the pool is abandoned (a running task cannot be
            # cancelled, only orphaned).
            state.last_error[index] = TimeoutError(
                f"chunk attempt exceeded {policy.attempt_timeout}s"
            )
            rebuild_needed = True
        except BrokenProcessPool as exc:
            state.last_error[index] = exc
            rebuild_needed = True
        except Exception as exc:  # worker-raised error; pool still healthy
            state.last_error[index] = exc
    return rebuild_needed
