"""Observability overhead — instrumented-but-disabled must be free.

The instrumentation contract (``repro/obs/__init__.py``) is that every
hot-path touch point is guarded by the module-level ``obs.enabled``
flag, so the disabled pipeline pays one boolean check per site and no
allocations.  This micro-benchmark holds the contract to its <5% budget:

* ``baseline`` — a local, uninstrumented copy of the seed voting
  estimator recursion (exactly the pre-observability code);
* ``disabled`` — the shipped instrumented estimator with observability
  off (the production default);
* ``enabled`` — the same estimator inside a capture window, for scale.

Timings take the best of several repetitions (min is the standard
noise-robust statistic for micro-benchmarks), and the bit-identity of
the three estimate streams is asserted alongside the overhead bound.
"""

import gc
import time
from itertools import combinations

from conftest import PER_LEVEL

from repro import obs
from repro.bench import emit_report, format_table, prepare_dataset
from repro.core.recursive import RecursiveDecompositionEstimator
from repro.trees.canonical import (
    canon,
    canon_removable_paths,
    canon_size,
    canon_without,
)

REPEATS = 5
OVERHEAD_BUDGET = 0.05

#: Flight-recorder budget: 1%-sampled spans on the warm batch path may
#: cost at most this much over metrics-only observability.
SPAN_SAMPLE_RATE = 0.01
SPAN_OVERHEAD_BUDGET = 0.10


class _SeedVotingEstimator:
    """The seed repository's voting recursion, free of instrumentation.

    Like the shipped estimator, it splits each twig's canonical key with
    the same key primitives, in the same pair order, so both do the same
    float operations in the same order and the gate compares like with
    like.
    """

    def __init__(self, lattice):
        self.lattice = lattice

    def estimate(self, query) -> float:
        key = canon(query)
        return self._estimate(key, canon_size(key), {})

    def _estimate(self, key, size, memo) -> float:
        cached = memo.get(key)
        if cached is not None:
            return cached
        value = self._lookup(key, size)
        if value is None:
            value = self._decompose(key, size, memo)
        memo[key] = value
        return value

    def _lookup(self, key, size):
        if size > self.lattice.level:
            return None
        stored = self.lattice.get(key)
        if stored is not None:
            return float(stored)
        if self.lattice.is_complete_at(size):
            return 0.0
        if size < 3:
            return 0.0
        return None

    def _decompose(self, key, size, memo) -> float:
        total = 0.0
        count = 0
        paths = canon_removable_paths(key)
        drop_one = {}
        for u, v in combinations(range(len(paths)), 2):
            common = canon_without(key, (paths[u], paths[v]))
            denominator = self._estimate(common, size - 2, memo)
            if denominator <= 0.0:
                estimate = 0.0
            else:
                for node in (u, v):
                    if node not in drop_one:
                        drop_one[node] = canon_without(key, (paths[node],))
                estimate = (
                    self._estimate(drop_one[u], size - 1, memo)
                    * self._estimate(drop_one[v], size - 1, memo)
                    / denominator
                )
            total += estimate
            count += 1
        return total / count if count else 0.0


def _best_run_seconds(estimate, queries) -> tuple[float, list[float]]:
    """Best-of-REPEATS wall time and the estimate stream it produced."""
    best = float("inf")
    values: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        values = [estimate(query.tree) for query in queries]
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, values


def test_disabled_observability_overhead_under_budget():
    bundle = prepare_dataset("nasa")
    workload = bundle.positive([7, 8], PER_LEVEL)
    queries = workload[7].queries + workload[8].queries

    assert not obs.enabled, "observability must default to off"
    baseline = _SeedVotingEstimator(bundle.lattice)
    instrumented = RecursiveDecompositionEstimator(bundle.lattice, voting=True)

    # Interleave-independent measurements; min-of-N absorbs scheduler noise.
    baseline_s, baseline_values = _best_run_seconds(baseline.estimate, queries)
    disabled_s, disabled_values = _best_run_seconds(instrumented.estimate, queries)

    with obs.observed():
        enabled_s, enabled_values = _best_run_seconds(
            instrumented.estimate, queries
        )

    # Observability never changes a single bit of any estimate.
    assert disabled_values == baseline_values
    assert enabled_values == baseline_values

    overhead = disabled_s / baseline_s - 1.0
    emit_report(
        "obs_overhead",
        format_table(
            "Observability overhead (voting estimator, nasa size 7-8)",
            ["mode", "seconds", "vs seed"],
            [
                ["seed (uninstrumented)", f"{baseline_s:.4f}", "1.00x"],
                ["instrumented, disabled", f"{disabled_s:.4f}",
                 f"{disabled_s / baseline_s:.2f}x"],
                ["instrumented, enabled", f"{enabled_s:.4f}",
                 f"{enabled_s / baseline_s:.2f}x"],
            ],
            note=(
                f"disabled-mode overhead {overhead * 100:+.1f}% "
                f"(budget {OVERHEAD_BUDGET * 100:.0f}%); "
                f"{len(queries)} queries, best of {REPEATS} runs"
            ),
        ),
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled observability costs {overhead * 100:.1f}% "
        f"(budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )


#: Interleaved measurement rounds per attempt, and noise-retry attempts
#: for the sampled-span gate (pass if *any* attempt is under budget).
SPAN_ROUNDS = 13
SPAN_ATTEMPTS = 3


def _timed_batch_cpu(estimator, queries) -> tuple[float, list[float]]:
    """One warm batch, timed on the process-CPU clock.

    Wall clocks on shared CI runners see scheduler steal an order of
    magnitude larger than the effect under test; span overhead is pure
    CPU work, so ``process_time`` is both the quieter and the more
    truthful clock.  Collecting garbage first keeps collections
    triggered by a *previous* round's span allocations from being billed
    to this one.
    """
    gc.collect()
    start = time.process_time()
    values = estimator.estimate_batch(queries)
    return time.process_time() - start, values


def _measure_span_overhead(
    estimator, queries
) -> tuple[float, float, list[float], list[float], int, int]:
    """One interleaved min-of-``SPAN_ROUNDS`` overhead measurement.

    Each round times the metrics-only window and the 1%-sampled window
    back to back, so slow drift (frequency scaling, CPU-quota
    throttling) cancels instead of landing on whichever side ran last;
    taking the min over rounds rejects one-sided noise spikes.  The
    query list is sized so every sampled round records exactly one root
    (``len(queries) * SPAN_SAMPLE_RATE == 1``), keeping round
    composition uniform — the min is then an estimate of the true
    per-round cost, recording included, not of a lucky span-free round.
    """
    enabled_s = sampled_s = float("inf")
    enabled_values: list[float] = []
    sampled_values: list[float] = []
    with obs.flight_recorder(SPAN_SAMPLE_RATE, seed=1) as recording:
        for _ in range(SPAN_ROUNDS):
            with obs.observed():
                elapsed, enabled_values = _timed_batch_cpu(estimator, queries)
            enabled_s = min(enabled_s, elapsed)
            elapsed, sampled_values = _timed_batch_cpu(estimator, queries)
            sampled_s = min(sampled_s, elapsed)
    return (
        enabled_s,
        sampled_s,
        enabled_values,
        sampled_values,
        recording.spans.roots_started,
        recording.spans.roots_sampled,
    )


def test_sampled_flight_recorder_overhead_under_budget():
    """1%-sampled spans must stay within 10% of metrics-only runs.

    Both sides run the *warm* ``estimate_batch`` path (every plan
    compiled beforehand), so the measured delta is exactly the span
    machinery: the per-root sampling draw, the shared suppression
    handle, and the one root per round that actually records.  The
    measurement retries up to ``SPAN_ATTEMPTS`` times and gates on the
    best attempt — a genuine regression inflates every attempt, a CI
    noise burst only some.
    """
    bundle = prepare_dataset("nasa")
    workload = bundle.positive([5, 6, 7, 8], PER_LEVEL)
    queries = [
        query for size in (5, 6, 7, 8) for query in workload[size].queries
    ]
    # One sampled root per round, at the same root index every round.
    assert len(queries) * SPAN_SAMPLE_RATE == 1.0

    estimator = RecursiveDecompositionEstimator(bundle.lattice, voting=True)
    warm_values = estimator.estimate_batch(queries)  # compile every plan

    best = float("inf")
    best_pair = (0.0, 0.0)
    for _ in range(SPAN_ATTEMPTS):
        enabled_s, sampled_s, enabled_values, sampled_values, started, kept = (
            _measure_span_overhead(estimator, queries)
        )

        # Sampling never changes a single bit of any estimate.
        assert enabled_values == warm_values
        assert sampled_values == warm_values

        # The recorder really ran: every root drew, one per round kept.
        assert started == len(queries) * SPAN_ROUNDS
        assert kept == SPAN_ROUNDS

        overhead = sampled_s / enabled_s - 1.0
        if overhead < best:
            best = overhead
            best_pair = (enabled_s, sampled_s)
        if best < SPAN_OVERHEAD_BUDGET:
            break

    enabled_s, sampled_s = best_pair
    emit_report(
        "obs_span_overhead",
        format_table(
            "Flight-recorder overhead (1% sampling, warm batch, nasa 5-8)",
            ["mode", "cpu seconds", "vs enabled"],
            [
                ["enabled, no spans", f"{enabled_s:.4f}", "1.00x"],
                [f"enabled, {SPAN_SAMPLE_RATE:.0%} spans", f"{sampled_s:.4f}",
                 f"{sampled_s / enabled_s:.2f}x"],
            ],
            note=(
                f"sampled-span overhead {best * 100:+.1f}% "
                f"(budget {SPAN_OVERHEAD_BUDGET * 100:.0f}%); "
                f"{len(queries)} queries, interleaved min of "
                f"{SPAN_ROUNDS} rounds, best attempt"
            ),
        ),
    )
    assert best < SPAN_OVERHEAD_BUDGET, (
        f"1%-sampled flight recorder costs {best * 100:.1f}% "
        f"(budget {SPAN_OVERHEAD_BUDGET * 100:.0f}%)"
    )
