"""Benchmark-regression smoke gate (run by the ``bench-smoke`` CI job).

A fast, fixed-seed slice of the Table-3 construction benchmark plus the
batch identity checks, producing a ``BENCH_pr.json`` artifact:

* mines each smoke dataset and times the mine;
* checks ``estimate_batch`` (serial and fanned out) against per-query
  ``estimate`` for the recursive, voting, and fix-sized estimators;
* runs the same estimators over ``--store {dict,array,both}`` summary
  backends and fails on any cross-backend estimate difference, and on
  an array-backend footprint above half the dict backend's;
* times warm ``estimate_batch`` passes per execution backend — the
  legacy compiled-plan replay plus every available kernel backend —
  against the cold pass that built the plans, failing below each
  backend's speedup floor (plan 2x, numpy 10x) and on any warm value
  differing from the cold bit pattern;
* compares construction time and warm throughput against a checked-in
  baseline JSON and fails when either regresses more than ``--factor``
  (default 2x).

Wall-clock numbers recorded on one machine are meaningless on another,
so every gated metric is stored as a *calibration-scaled ratio*: both
the baseline and the current run time a fixed pure-Python spin loop
(:func:`calibration_seconds`) immediately around each gated region,
serial construction is recorded as ``serial_seconds /
calibration_seconds`` (``serial_ratio``), and warm throughput as
``queries/s * calibration_seconds`` (``qps_norm``).  Ratios are
dimensionless, so baseline comparison is a direct divide — no
machine-speed fudge factor at gate time.  Pattern counts are also
pinned against the baseline — mining is deterministic, so any drift is
a correctness bug, not noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --output BENCH_pr.json --baseline benchmarks/BENCH_baseline.json

Exit codes: 0 ok; 1 divergence or regression; 2 usage errors.
Regenerate the baseline after an intentional perf change with
``--write-baseline benchmarks/BENCH_baseline.json`` (see
benchmarks/README.md for the recalibration workflow).  On pushes to
main the CI bench-trajectory job also passes ``--append-history`` to
grow a JSONL throughput log gated by ``build_report_index.py``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.core.fixed import FixedDecompositionEstimator
from repro.core.lattice import LatticeSummary
from repro.core.recursive import RecursiveDecompositionEstimator
from repro.datasets import generate_dataset
from repro.kernels import available_backends
from repro.mining.freqt import mine_lattice
from repro.trees.matching import DocumentIndex
from repro.workload.generator import positive_workloads

SCHEMA = 5
LEVEL = 4
WORKERS = 2
#: (dataset, scale): tiny fixed-seed slices of the paper's Table 3 corpora.
SMOKE_DATASETS = (("nasa", 40), ("xmark", 30))
QUERY_SIZES = (5, 6)
QUERIES_PER_SIZE = 10
#: The interned array backend must cost at most this fraction of dict.
ARRAY_RATIO_CEILING = 0.5
#: Warm batches must beat the cold (plan-compiling) batch by at least
#: this factor, per execution backend.  The vectorised numpy executor
#: must earn its optional dependency with an order of magnitude.
BACKEND_SPEEDUP_FLOORS = {"plan": 2.0, "numpy": 10.0}
#: Warm batches finish in well under a millisecond, so one batch is
#: inside timer jitter; each timed warm region runs this many batches
#: and divides, keeping per-backend qps stable enough to gate on.
WARM_REPEATS = 10


def calibration_seconds() -> float:
    """Best-of-3 timing of a fixed spin loop, for cross-machine scaling.

    Measured on the process CPU clock, like every gated timing in this
    module: gates compare work done by *this* process, so time stolen
    by noisy CI neighbours cancels out instead of failing the job.

    Effective machine speed still drifts *within* a run (frequency
    scaling, cache pressure from neighbours), so callers must not reuse
    one process-wide sample: each gated region re-runs the spin loop
    immediately before and after itself and scales by the slower of the
    two brackets (:func:`bracket_calibration`), so a transient fast
    blip in a lone calibration sample cannot inflate a ratio.
    """
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        acc = 0
        for value in range(400_000):
            acc += value * value
        best = min(best, time.process_time() - start)
    assert acc  # keep the loop observable
    return best


def bracket_calibration(before: float, after: float) -> float:
    """Calibration for a region bracketed by two spin-loop samples."""
    return max(before, after)


def current_commit() -> str | None:
    """Commit hash for history records: ``GITHUB_SHA`` or ``git rev-parse``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def make_estimators(
    summary: LatticeSummary,
) -> tuple[RecursiveDecompositionEstimator, ...]:
    return (
        RecursiveDecompositionEstimator(summary),
        RecursiveDecompositionEstimator(summary, voting=True),
        FixedDecompositionEstimator(summary),
    )


def backend_timings(
    summary: LatticeSummary, queries: list
) -> tuple[float, dict[str, float], list[str]]:
    """Best-of-3 cold and per-backend warm batch timings (voting estimator).

    The cold pass compiles one plan per query shape.  Each warm pass
    replays those plans through one execution backend; kernel backends
    get one untimed warm-up batch first so program lowering and the
    prepared-batch cache are built outside the timed region (CI gates
    steady-state throughput, not one-off lowering cost).  The timed
    region runs ``WARM_REPEATS`` batches — a single warm batch is
    shorter than timer jitter — and every warm pass must reproduce the
    cold floats bit for bit.
    """
    backends = available_backends()
    best_cold = float("inf")
    best_warm = {backend: float("inf") for backend in backends}
    failures: list[str] = []
    # By this point the process heap holds two mined datasets, so a
    # cyclic-GC pass landing inside a sub-millisecond timed region
    # costs more than the region itself (observed 2-3x qps swings).
    # Collect once, then keep the collector off while timing.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            estimator = RecursiveDecompositionEstimator(summary, voting=True)
            start = time.process_time()
            cold_values = estimator.estimate_batch(queries)
            cold_seconds = time.process_time() - start
            best_cold = min(best_cold, cold_seconds)
            for backend in backends:
                if backend != "plan":
                    # Untimed warm-up: lower programs, prepare batches.
                    estimator.estimate_batch(queries, backend=backend)
                warm_values = estimator.estimate_batch(queries, backend=backend)
                if warm_values != cold_values:
                    failures.append(
                        f"warm {backend} batch changed estimates vs cold"
                    )
                start = time.process_time()
                for _ in range(WARM_REPEATS):
                    estimator.estimate_batch(queries, backend=backend)
                warm_seconds = (time.process_time() - start) / WARM_REPEATS
                best_warm[backend] = min(best_warm[backend], warm_seconds)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_cold, best_warm, sorted(set(failures))


def run_dataset(
    name: str, scale: int, backends: tuple[str, ...]
) -> tuple[dict[str, object], list[str]]:
    """Measure one smoke dataset; returns (metrics row, failure messages)."""
    failures: list[str] = []
    document = generate_dataset(name, scale, seed=0)
    index = DocumentIndex(document)

    mining_cal_before = calibration_seconds()
    start = time.process_time()
    mined = mine_lattice(index, LEVEL)
    serial_seconds = time.process_time() - start
    mining_calibration = bracket_calibration(
        mining_cal_before, calibration_seconds()
    )

    serial_ratio = serial_seconds / mining_calibration

    summary = LatticeSummary.from_mining(mined)
    summaries = {backend: summary.to_store(backend) for backend in backends}
    workloads = positive_workloads(index, list(QUERY_SIZES), QUERIES_PER_SIZE, seed=1)
    queries = [q for size in QUERY_SIZES for q in workloads[size].queries]

    reference: dict[str, list[float]] = {}
    for backend, backend_summary in summaries.items():
        for estimator in make_estimators(backend_summary):
            per_query = [estimator.estimate(q) for q in queries]
            expected = reference.setdefault(estimator.name, per_query)
            if per_query != expected:
                failures.append(
                    f"{name}: {estimator.name}: {backend} backend estimates "
                    "diverged from the first backend"
                )
            if estimator.estimate_batch(queries) != per_query:
                failures.append(
                    f"{name}: {estimator.name}: estimate_batch diverged "
                    f"({backend} backend)"
                )
            if estimator.estimate_batch(queries, workers=WORKERS) != per_query:
                failures.append(
                    f"{name}: {estimator.name}: parallel estimate_batch "
                    f"diverged ({backend} backend)"
                )

    row: dict[str, object] = {
        "nodes": document.size,
        "patterns": mined.total_patterns(),
        "queries": len(queries),
        "serial_seconds": round(serial_seconds, 4),
        "serial_ratio": round(serial_ratio, 4),
        "mining_calibration_seconds": round(mining_calibration, 4),
    }
    for backend, backend_summary in summaries.items():
        row[f"{backend}_bytes"] = backend_summary.byte_size()
    if {"dict", "array"} <= summaries.keys():
        ratio = summaries["array"].byte_size() / summaries["dict"].byte_size()
        row["array_dict_byte_ratio"] = round(ratio, 4)
        if ratio > ARRAY_RATIO_CEILING:
            failures.append(
                f"{name}: array backend too large: {ratio:.2f}x dict bytes "
                f"(ceiling {ARRAY_RATIO_CEILING}x)"
            )

    batch_cal_before = calibration_seconds()
    cold_seconds, warm_seconds, warm_failures = backend_timings(summary, queries)
    batch_calibration = bracket_calibration(
        batch_cal_before, calibration_seconds()
    )
    failures.extend(f"{name}: {message}" for message in warm_failures)
    row["cold_batch_seconds"] = round(cold_seconds, 4)
    row["batch_calibration_seconds"] = round(batch_calibration, 4)
    warm_rows: dict[str, dict[str, object]] = {}
    row["warm"] = warm_rows
    for backend, seconds in warm_seconds.items():
        speedup = cold_seconds / seconds if seconds > 0 else float("inf")
        qps = len(queries) / seconds if seconds > 0 else None
        warm_rows[backend] = {
            "seconds": round(seconds, 5),
            "speedup": round(speedup, 2),
            "qps_norm": (
                round(qps * batch_calibration, 2) if qps is not None else None
            ),
        }
        floor = BACKEND_SPEEDUP_FLOORS[backend]
        if speedup < floor:
            failures.append(
                f"{name}: warm {backend} batch only {speedup:.2f}x faster "
                f"than cold (floor {floor}x)"
            )
    return row, failures


def compare_to_baseline(
    current: dict[str, object], baseline: dict[str, object], factor: float
) -> list[str]:
    """Failure messages for regressions of ``current`` vs ``baseline``.

    Every timing gate is a ratio of calibration-scaled quantities —
    ``serial_ratio`` for construction cost and per-backend ``qps_norm``
    for warm throughput — so baseline and current are comparable even
    when recorded on machines of different speed.
    """
    failures: list[str] = []
    base_schema = baseline.get("schema")
    if base_schema != SCHEMA:
        return [
            f"baseline schema {base_schema!r} != current schema {SCHEMA}; "
            "regenerate it (see benchmarks/README.md)"
        ]
    current_rows = dict(current["datasets"])
    baseline_rows = dict(baseline.get("datasets", {}))
    for name, base_row in baseline_rows.items():
        row = current_rows.get(name)
        if row is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        if row["patterns"] != base_row["patterns"]:
            failures.append(
                f"{name}: pattern count drifted "
                f"({row['patterns']} vs baseline {base_row['patterns']})"
            )
        allowed_ratio = float(base_row["serial_ratio"]) * factor
        measured_ratio = float(row["serial_ratio"])
        if measured_ratio > allowed_ratio:
            failures.append(
                f"{name}: construction regressed: serial_ratio "
                f"{measured_ratio:.2f} > {allowed_ratio:.2f} allowed "
                f"({factor}x baseline {base_row['serial_ratio']})"
            )
        base_warm = dict(base_row.get("warm", {}))
        current_warm = dict(row.get("warm", {}))
        for backend, base_metrics in base_warm.items():
            metrics = current_warm.get(backend)
            base_qps = base_metrics.get("qps_norm")
            if metrics is None or base_qps is None:
                # Backend missing in this environment (e.g. a no-numpy
                # leg gating against a numpy-recorded baseline) — the
                # speedup floors above still gate what did run.
                continue
            qps = metrics.get("qps_norm")
            floor_qps = float(base_qps) / factor
            if qps is None or float(qps) < floor_qps:
                failures.append(
                    f"{name}: warm {backend} throughput regressed: "
                    f"{qps} qps_norm < {floor_qps:.2f} allowed "
                    f"(baseline {base_qps} / {factor}x)"
                )
    return failures


def history_record(report: dict[str, object]) -> dict[str, object]:
    """One JSONL trajectory record: normalized warm qps per backend."""
    datasets: dict[str, dict[str, object]] = {}
    for name, row in dict(report["datasets"]).items():
        datasets[name] = {
            backend: metrics["qps_norm"]
            for backend, metrics in dict(row.get("warm", {})).items()
        }
    return {
        "schema": SCHEMA,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": current_commit(),
        "calibration_seconds": report["calibration_seconds"],
        "warm_qps_norm": datasets,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the run's metrics JSON here")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="checked-in baseline JSON to gate against")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed regression factor on calibration-scaled "
                             "ratios (default 2.0)")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="record this run as the new baseline and exit")
    parser.add_argument("--append-history", default=None, metavar="PATH",
                        help="append a timestamped throughput record to this "
                             "JSONL trajectory file (CI bench-trajectory job)")
    parser.add_argument("--store", choices=("dict", "array", "both"),
                        default="both",
                        help="summary backend(s) to exercise (default both)")
    args = parser.parse_args(argv)
    backends = ("dict", "array") if args.store == "both" else (args.store,)

    datasets: dict[str, dict[str, object]] = {}
    report: dict[str, object] = {
        "schema": SCHEMA,
        "level": LEVEL,
        "workers": WORKERS,
        "store": list(backends),
        "backends": list(available_backends()),
        "calibration_seconds": round(calibration_seconds(), 4),
        "datasets": datasets,
    }
    failures: list[str] = []
    for name, scale in SMOKE_DATASETS:
        row, dataset_failures = run_dataset(name, scale, backends)
        datasets[name] = row
        failures.extend(dataset_failures)
        warm = {
            backend: f"{metrics['speedup']}x"
            for backend, metrics in dict(row["warm"]).items()
        }
        print(
            f"{name:8} nodes={row['nodes']:<6} patterns={row['patterns']:<5} "
            f"serial={row['serial_seconds']}s "
            f"warm_speedups={warm}"
        )

    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"baseline written to {args.write_baseline}")
        return 0

    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"metrics written to {args.output}")

    if args.append_history:
        record = history_record(report)
        with open(args.append_history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"history record appended to {args.append_history}")

    if args.baseline:
        try:
            baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        failures.extend(compare_to_baseline(report, baseline, args.factor))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
