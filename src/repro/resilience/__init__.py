"""Fault-tolerant execution layer (parallel → **resilience** → obs).

Three pieces, used together by the batched-estimation fan-out and the
store loaders (see ``docs/robustness.md``):

* :mod:`~repro.resilience.faults` — deterministic, seedable fault
  injection at named sites (:class:`FaultPlan`, activated explicitly
  via :func:`fault_plan` or ambiently via the ``REPRO_FAULTS``
  environment spec);
* :mod:`~repro.resilience.retry` — the :class:`RetryPolicy` budget
  (retries, per-attempt timeouts, deadline, capped exponential
  backoff, degrade-or-raise) and the typed failures
  (:class:`ChunkFailureError`, :class:`RetryBudgetExhausted`);
* :mod:`~repro.resilience.runner` — the round-based retry engine
  (:func:`run_chunks`) every ``ProcessPoolExecutor`` submission routes
  through, preserving submission-order merges so retried runs stay
  bit-identical to serial.

:mod:`~repro.resilience.health` keeps the process-local degradation
ledger the CLI's exit status 3 is derived from, and
``resilience/record.py`` is the layer's sanctioned ``repro.obs``
bridge (``fault_*``/``retry_*`` counters, ``degraded_mode`` gauge,
``fault``/``retry`` spans).
"""

from __future__ import annotations

from .faults import (
    ENV_VAR,
    FAULT_KINDS,
    FaultCommand,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    active_plan,
    corrupt_bytes,
    execute_fault,
    fault_plan,
)
from .health import degraded_events, last_degraded_site
from .retry import ChunkFailureError, RetryBudgetExhausted, RetryPolicy
from .runner import ExecutorSupervisor, RunReport, run_chunks

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultCommand",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "active_plan",
    "corrupt_bytes",
    "execute_fault",
    "fault_plan",
    "degraded_events",
    "last_degraded_site",
    "ChunkFailureError",
    "RetryBudgetExhausted",
    "RetryPolicy",
    "ExecutorSupervisor",
    "RunReport",
    "run_chunks",
]
