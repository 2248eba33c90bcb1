"""Retry policy and the typed failures the retry engine raises.

A :class:`RetryPolicy` is a small frozen value object configuring the
batched-estimation fan-out: how many times a chunk may be re-submitted,
how long one attempt may run, how long the whole run may take, how hard
to back off between recovery rounds, and whether an exhausted budget
degrades to the serial path or raises.

Chunk results are pure functions of the task arguments, so retrying
(or falling back to serial) can never change a value — the policy is
purely an availability/latency knob, exactly like ``workers``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RetryPolicy",
    "ChunkFailureError",
    "RetryBudgetExhausted",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling budget for one parallel run.

    The default policy retries each chunk twice with capped exponential
    backoff between recovery rounds and degrades to the serial path
    when the budget runs out — a parallel call never fails outright
    unless asked to (:meth:`none`).
    """

    #: re-submissions allowed per chunk after its first attempt.
    max_retries: int = 2
    #: backoff before recovery round ``r``: ``base * 2**(r-1)`` seconds.
    backoff_base: float = 0.05
    #: ceiling on any single backoff sleep, in seconds.
    backoff_cap: float = 1.0
    #: wall-clock limit for one attempt; ``None`` waits indefinitely.
    #: A timed-out attempt abandons the pool (the worker may be hung)
    #: and counts against the chunk's retry budget.
    attempt_timeout: float | None = None
    #: wall-clock limit for the whole run; once exceeded, chunks still
    #: pending skip straight to fallback / failure.  ``None`` = no limit.
    deadline: float | None = None
    #: degrade to the serial path when a chunk's budget is exhausted
    #: (False = raise :class:`RetryBudgetExhausted` instead).
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap}")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be > 0, got {self.attempt_timeout}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail fast: no retries, no serial fallback.

        First chunk failure raises a chained
        :class:`ChunkFailureError` naming the chunk — the pre-resilience
        behaviour, minus the raw ``BrokenProcessPool``.
        """
        return cls(max_retries=0, backoff_base=0.0, fallback=False)

    def backoff_for(self, round_index: int) -> float:
        """Backoff (seconds) before recovery round ``round_index >= 1``."""
        if round_index <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2.0 ** (round_index - 1))


class ChunkFailureError(RuntimeError):
    """A parallel chunk failed and the run could not absorb it.

    Chains the last underlying failure (``BrokenProcessPool``,
    ``PicklingError``, a worker exception, or a timeout) via
    ``__cause__`` and names the failing chunk so the operator knows
    what to rerun.
    """

    def __init__(
        self,
        site: str,
        chunk_index: int,
        chunks: int,
        attempts: int,
        cause: BaseException | None = None,
    ) -> None:
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"chunk {chunk_index + 1}/{chunks} at {site!r} failed after "
            f"{attempts} attempt(s){detail}; rerun serially (workers=None) "
            "or widen the budget with RetryPolicy(max_retries=..., "
            "fallback=True)"
        )
        self.site = site
        self.chunk_index = chunk_index
        self.chunks = chunks
        self.attempts = attempts


class RetryBudgetExhausted(ChunkFailureError):
    """Every allowed attempt for a chunk failed (and fallback was off)."""
