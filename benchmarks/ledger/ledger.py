"""Pure helpers of the performance ledger: statistics, spans, validation.

Nothing here imports ``repro``: the orchestrator (``run.py``) and the
unit tests (``test_ledger.py``) use these functions without generating
any input, and the measuring stage (``workloads.py``) takes its
statistics and spans from them.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: A metric name: letters, digits, ``_``, ``.`` and ``-``; starts with a
#: letter or digit; at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile must leave at least this many samples beyond it.
BEYOND = 10

#: Candidate percentiles for the tail rule, highest first.
PERCENTILE_LADDER = ("99.9", "99", "95", "90", "80", "75", "50")


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float | str) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return math.floor(n * (100 - Fraction(str(q))) / 100)


def supported_percentile(n: int, beyond: int = BEYOND) -> float | None:
    """Highest ladder percentile with at least ``beyond`` samples above it.

    ``None`` when even the median leaves fewer than ``beyond`` samples
    beyond it, i.e. when ``n`` is too small for any tail to be reported.
    """
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= beyond:
            return float(q)
    return None


def calibrated(
    samples: Iterable[tuple[float, float]],
    calibrations: list[tuple[float, float]],
    reference: float,
) -> list[float]:
    """Durations scaled from the machine's current speed to the reference speed.

    ``samples`` are ``(start, seconds)`` pairs and ``calibrations`` are
    ``(time, seconds)`` timings of one fixed calibration workload, in
    time order, the first taken before the first sample starts.  Each
    duration is multiplied by ``reference / c``, where ``c`` is the mean
    of the calibrations taken just before and just after it started; a
    machine running at half speed doubles both, and the ratio stays.
    """
    times = [time_ for time_, _ in calibrations]
    scaled = []
    for start, seconds in samples:
        after = bisect.bisect_right(times, start)
        around = [value for _, value in calibrations[max(0, after - 1):after + 1]]
        scaled.append(seconds * reference * len(around) / sum(around))
    return scaled


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans with online self time, written out at exit.

    Each span records its name, start, end, parent span and trace id.
    A span's self time is its duration minus the time its child spans
    cover; spans are opened and closed on one thread, so children nest
    strictly and never overlap each other.  Self time and call counts
    are kept for every span; the raw spans (for the Chrome trace) only
    up to ``keep``, after which they are counted in ``dropped``.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep: int = 50_000
    ) -> None:
        self.clock = clock
        self.keep = keep
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.self_seconds: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.trace_id = 0
        self._next_id = 1
        # Open spans: [span id, name, start, seconds covered by children].
        self._stack: list[list[Any]] = []

    def new_trace(self) -> None:
        """Start a new trace: later root spans belong to one operation."""
        self.trace_id += 1

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = self.clock()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_seconds[name] = self.self_seconds.get(name, 0.0) + duration - covered
        self.durations.setdefault(name, []).append(duration)
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, self.trace_id, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def mark(self) -> dict[str, int]:
        """Span counts per name so far, for :meth:`since`."""
        return {name: len(values) for name, values in self.durations.items()}

    def since(self, mark: dict[str, int], name: str) -> list[float]:
        """Durations of ``name`` spans closed after ``mark`` was taken."""
        return self.durations.get(name, [])[mark.get(name, 0):]

    def chrome_trace(self) -> dict[str, Any]:
        """The kept spans as Chrome Trace Event JSON (``chrome://tracing``)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent, "trace": trace},
            }
            for span_id, parent, trace, name, start, end in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }


def module_shares(self_seconds: dict[str, float], modules: Iterable[str]) -> dict[str, float]:
    """Percent of all self time spent in each module.

    A span's module is the first dotted component of its name
    (``mining.freqt.mine`` belongs to ``mining``).
    """
    total = sum(self_seconds.values())
    shares = dict.fromkeys(modules, 0.0)
    for name, seconds in self_seconds.items():
        module = name.split(".", 1)[0]
        if module in shares and total > 0:
            shares[module] += 100.0 * seconds / total
    return shares


def self_time_table(recorder: SpanRecorder) -> str:
    """Plain-text table of self time per span name, largest first."""
    total = sum(recorder.self_seconds.values()) or 1.0
    rows = sorted(recorder.self_seconds.items(), key=lambda item: -item[1])
    lines = [f"{'span':<44} {'calls':>9} {'self_s':>11} {'share':>7}"]
    for name, seconds in rows:
        calls = len(recorder.durations.get(name, ()))
        lines.append(
            f"{name:<44} {calls:>9} {seconds:>11.6f} {100 * seconds / total:>6.2f}%"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Inputs, names and the result line
# ----------------------------------------------------------------------


def digest_dir(path: Path) -> str:
    """sha256 over every file under ``path`` (relative names and bytes)."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode("utf-8") + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def name_problems(printed: Iterable[str], declared: Iterable[str]) -> list[str]:
    """Why the printed metric names do not match the declared ones.

    Every printed name must match :data:`NAME_PATTERN` and be declared,
    and every declared name must be printed.
    """
    printed_set, declared_set = set(printed), set(declared)
    problems = [
        f"metric name {name!r} does not match {NAME_PATTERN.pattern}"
        for name in sorted(printed_set | declared_set)
        if not NAME_PATTERN.fullmatch(name)
    ]
    problems += [f"metric {name!r} is not declared" for name in sorted(printed_set - declared_set)]
    problems += [f"metric {name!r} was not printed" for name in sorted(declared_set - printed_set)]
    return problems


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    """The one-line JSON result object that ends the benchmark's output."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
