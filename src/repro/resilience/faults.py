"""Deterministic, seedable fault injection at named sites.

A :class:`FaultPlan` is a parent-side schedule of failures: each time
the retry runner is about to submit a chunk (or a store is about to
decode a payload) it *draws* against the plan, and a matching rule
yields a picklable :class:`FaultCommand` describing what should go
wrong.  Commands for pool sites travel to the worker with the task and
are executed there (:func:`execute_fault`); corruption commands are
applied parent-side to payload bytes (:func:`corrupt_bytes`).

Keeping the bookkeeping in the parent is what makes injected chaos
deterministic *and* convergent: a rule with ``times=2`` fires on
exactly two draws no matter how many worker processes crash, restart,
or get rebuilt along the way — a worker-side counter would reset with
every pool rebuild and re-fire forever.

Activation
----------
Tests install a plan explicitly with :func:`fault_plan`; end-to-end
runs (the CI chaos matrix) set the ``REPRO_FAULTS`` environment
variable to a spec string parsed by :meth:`FaultPlan.parse`:

.. code-block:: text

    spec    := clause (";" clause)*
    clause  := kind "@" site [":" option ("," option)*]
    kind    := "crash" | "hang" | "error" | "pickle" | "corrupt"
    site    := injection site name, or "*" for every site
    option  := "after=N"    skip the first N matching draws
             | "times=N"    fire on N draws, then disarm ("*" = forever)
             | "seconds=F"  hang duration (hang kind only)
             | "p=F"        fire probability in [0, 1] (seeded)
             | "seed=N"     seed for the p-stream (default 0)

Example: ``crash@batch.estimate_chunk:after=1,times=1`` kills the worker
handling the second chunk ever submitted at the batch site, once.

See ``docs/robustness.md`` for the site catalogue.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import record

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultRule",
    "FaultCommand",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "fault_plan",
    "active_plan",
    "execute_fault",
    "corrupt_bytes",
]

#: Environment variable holding a fault spec for end-to-end chaos runs.
ENV_VAR = "REPRO_FAULTS"

#: Recognised fault kinds.
FAULT_KINDS = ("crash", "hang", "error", "pickle", "corrupt")

#: Kinds that execute inside (or on the way to) a pool worker.
POOL_KINDS = ("crash", "hang", "error", "pickle")

#: Exit status used by injected worker crashes (an arbitrary non-zero
#: value that is recognisable in worker exit logs).
CRASH_EXIT_STATUS = 86


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec string that cannot be parsed."""


class InjectedFault(RuntimeError):
    """The error raised inside a worker by an ``error``-kind fault."""


@dataclass(frozen=True)
class FaultRule:
    """One clause of a plan: *what* fails, *where*, and *when*."""

    kind: str
    site: str
    #: skip this many matching draws before arming.
    after: int = 0
    #: fire on this many draws once armed (``None`` = forever).
    times: int | None = 1
    #: hang duration in seconds (``hang`` kind only).
    seconds: float = 0.05
    #: fire probability per armed draw; < 1.0 uses a seeded stream.
    p: float = 1.0
    #: seed for the probability stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {', '.join(FAULT_KINDS)}"
            )
        if not self.site:
            raise FaultSpecError("fault rule needs a non-empty site name")
        if self.after < 0:
            raise FaultSpecError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise FaultSpecError(f"times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise FaultSpecError(f"seconds must be >= 0, got {self.seconds}")
        if not 0.0 <= self.p <= 1.0:
            raise FaultSpecError(f"p must be within [0, 1], got {self.p}")

    def matches(self, site: str) -> bool:
        return self.site == "*" or self.site == site


@dataclass(frozen=True)
class FaultCommand:
    """A picklable instruction produced by a draw, shipped with a task."""

    kind: str
    site: str
    seconds: float = 0.0


class FaultPlan:
    """A deterministic schedule of faults, drawn one submission at a time.

    The plan owns all counting state, so it must only be consulted from
    the parent process (the retry runner and the store loaders do).
    """

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        self.rules = tuple(rules)
        #: total commands this plan has issued (all rules).
        self.injected = 0
        # per-rule matched-draw counts / seeded probability streams.
        self._hits: dict[int, int] = {}
        self._rngs: dict[int, random.Random] = {}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` spec string (grammar above)."""
        rules = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if clause:
                rules.append(_parse_clause(clause))
        if not rules:
            raise FaultSpecError(f"fault spec {spec!r} contains no clauses")
        return cls(rules)

    def draw(
        self, site: str, kinds: Sequence[str] = POOL_KINDS
    ) -> FaultCommand | None:
        """Next command for a submission at ``site``, if any rule fires.

        ``kinds`` restricts which rule kinds apply at this call site
        (store loaders only honour ``corrupt``; pool submissions honour
        everything else).  Rules of other kinds neither fire nor consume
        a draw.  First matching armed rule wins.
        """
        for index, rule in enumerate(self.rules):
            if rule.kind not in kinds or not rule.matches(site):
                continue
            hit = self._hits.get(index, 0)
            self._hits[index] = hit + 1
            if hit < rule.after:
                continue
            if rule.times is not None and hit >= rule.after + rule.times:
                continue
            if rule.p < 1.0:
                rng = self._rngs.get(index)
                if rng is None:
                    rng = random.Random(rule.seed)
                    self._rngs[index] = rng
                if rng.random() >= rule.p:
                    continue
            self.injected += 1
            return FaultCommand(kind=rule.kind, site=site, seconds=rule.seconds)
        return None


def _parse_clause(clause: str) -> FaultRule:
    head, _, opts = clause.partition(":")
    kind, sep, site = head.partition("@")
    if not sep:
        raise FaultSpecError(
            f"fault clause {clause!r} is missing '@site' "
            "(expected kind@site[:opt,...])"
        )
    fields: dict[str, int | float | None] = {}
    for opt in opts.split(",") if opts else []:
        opt = opt.strip()
        if not opt:
            continue
        key, sep, value = opt.partition("=")
        if not sep:
            raise FaultSpecError(f"fault option {opt!r} is not key=value")
        try:
            if key in ("after", "seed"):
                fields[key] = int(value)
            elif key == "times":
                fields[key] = None if value == "*" else int(value)
            elif key in ("seconds", "p"):
                fields[key] = float(value)
            else:
                raise FaultSpecError(
                    f"unknown fault option {key!r} "
                    "(after/times/seconds/p/seed)"
                )
        except ValueError as exc:
            if isinstance(exc, FaultSpecError):
                raise
            raise FaultSpecError(
                f"bad value for fault option {key!r}: {value!r}"
            ) from exc
    return FaultRule(kind=kind.strip(), site=site.strip(), **fields)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Activation: explicit installs override the environment spec
# ----------------------------------------------------------------------

_installed: FaultPlan | None = None
_install_active = False
_env_plan: FaultPlan | None = None
_env_spec_seen: str | None = None


def active_plan() -> FaultPlan | None:
    """The plan draws consult: the installed one, else ``REPRO_FAULTS``.

    The environment spec is parsed once per distinct value and the plan
    object (with its counting state) is reused for the process lifetime,
    so ``times=N`` windows hold across every run in the process.
    """
    if _install_active:
        return _installed
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    global _env_plan, _env_spec_seen
    if spec != _env_spec_seen:
        _env_plan = FaultPlan.parse(spec)
        _env_spec_seen = spec
    return _env_plan


@contextmanager
def fault_plan(plan: "FaultPlan | str | None") -> Iterator[FaultPlan | None]:
    """Install ``plan`` for the scope (a spec string is parsed first).

    ``fault_plan(None)`` disarms injection entirely for the scope, even
    when ``REPRO_FAULTS`` is set — tests asserting exact metric counts
    use it to shield themselves from an ambient chaos matrix.
    """
    global _installed, _install_active
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    previous, previous_active = _installed, _install_active
    _installed, _install_active = plan, True
    try:
        yield plan
    finally:
        _installed, _install_active = previous, previous_active


# ----------------------------------------------------------------------
# Execution hooks
# ----------------------------------------------------------------------


def execute_fault(command: FaultCommand) -> None:
    """Carry out a pool-kind command inside the worker process.

    Called by the retry runner's task wrapper before the real chunk
    function runs.  ``crash`` hard-exits the worker (the parent sees
    ``BrokenProcessPool``); ``hang`` sleeps for ``seconds`` and then
    proceeds normally, so it only bites when the caller set a
    per-attempt timeout; ``error`` raises :class:`InjectedFault`;
    ``pickle`` is normally simulated parent-side at submission, with a
    worker-side raise kept as defence in depth.
    """
    if command.kind == "crash":
        os._exit(CRASH_EXIT_STATUS)
    elif command.kind == "hang":
        time.sleep(command.seconds)
    elif command.kind == "error":
        raise InjectedFault(f"injected worker error at {command.site!r}")
    elif command.kind == "pickle":  # pragma: no cover - parent-side normally
        raise pickle.PicklingError(
            f"injected pickling failure at {command.site!r}"
        )


def corrupt_bytes(site: str, data: bytes) -> bytes:
    """Payload-corruption hook for store loaders.

    When the active plan has an armed ``corrupt`` rule for ``site``, one
    byte in the middle of ``data`` is flipped — the checksum layer must
    turn that into a typed ``ChecksumMismatch``.  With no armed rule the
    bytes pass through untouched, so production loads pay one plan
    lookup (usually ``None``) and nothing else.
    """
    plan = active_plan()
    if plan is None or not data:
        return data
    command = plan.draw(site, kinds=("corrupt",))
    if command is None:
        return data
    record.record_fault(site, "corrupt")
    position = len(data) // 2
    flipped = bytearray(data)
    flipped[position] ^= 0xFF
    return bytes(flipped)
