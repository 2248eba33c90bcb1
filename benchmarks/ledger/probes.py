"""Span patches and layer probes of the traced ledger run.

The traced run measures each workload's loop with spans around the
calls into each layer: ``workloads.py`` opens spans around the calls it
makes itself, and :class:`Patches` wraps the functions the library calls
internally, on the name where the caller looks them up (for example
``repro.core.streaming.anchored_counts``).  Nothing under ``src/``
changes.

After the loop every workload runs the same probes on its own document,
query pool and donor records.  Each probe times one layer's entry point
and returns per-layer metrics, so every per-layer metric is measured on
every workload.  A probe whose function, keyword or module no longer
exists raises :class:`Absent`: its metrics are reported absent, not
failed.
"""

from __future__ import annotations

import importlib
import inspect
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import ledger
import repro

K = 4

#: (module, attribute path, span name): functions wrapped in spans
#: during the traced run, on the name their caller looks up.
PATCH_POINTS = (
    ("repro.core.lattice", "mine_lattice", "mining.freqt.mine"),
    ("repro.core.streaming", "mine_lattice", "mining.freqt.record_mine"),
    ("repro.core.streaming", "anchored_counts", "mining.sharded.anchored_counts"),
    ("repro.core.streaming", "DocumentIndex", "trees.matching.index"),
    ("repro.mining.sharded", "anchored_counts", "mining.sharded.boundary_counts"),
    ("repro.mining.sharded", "merge_shard_stores", "mining.sharded.merge"),
    ("repro.core.recursive", "canon", "trees.canonical.canon"),
    ("repro.store.dict_store", "DictStore.add", "store.dict.add"),
    ("repro.store.dict_store", "DictStore.get", "store.dict.get"),
    ("repro.store.dict_store", "DictStore.merge", "store.dict.merge"),
    ("repro.core.lattice", "LatticeSummary.get", "core.lattice.get"),
    ("repro.core.streaming", "StreamingSummary.compact", "core.streaming.compact"),
    ("repro.kernels", "lower_plan", "kernels.lower_plan"),
    ("repro.kernels.exec_numpy", "prepare_batch", "kernels.prepare_batch"),
)

#: Query sizes of the estimation probes, and the kernel batch sizes.
PROBE_SIZES = (5, 6, 7, 8)
BATCH_SIZES = (20, 200, 2000, 10000)
#: Streaming probe: insert+delete cycles, reads per cycle, staleness.
STREAM_CYCLES = 3
STREAM_READS = 20
STREAM_MAX_PENDING = 2
#: Warm passes over the pool after the cold one.
WARM_PASSES = 3
#: Lookups are counted over every LOOKUP_STRIDE-th pool query.
LOOKUP_STRIDE = 4
#: A timed kernel batch repeats until it has run this long.
MIN_TIMED_SECONDS = 0.15


class Absent(Exception):
    """A probed function, keyword or module does not exist at this commit."""


def resolve(module: str, path: str) -> tuple[Any, str]:
    """The object owning the last attribute of ``path``, and that attribute."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError as exc:
        raise Absent(f"module {module} is gone") from exc
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if not hasattr(owner, attribute):
        raise Absent(f"{module}.{path} is gone")
    return owner, attribute


def require_kwarg(fn: Callable[..., Any], kwarg: str) -> None:
    if kwarg not in inspect.signature(fn).parameters:
        raise Absent(f"{fn.__qualname__} takes no {kwarg!r}")


class Patches:
    """Install and remove the span wrappers of :data:`PATCH_POINTS`."""

    def __init__(self, recorder: ledger.SpanRecorder) -> None:
        self.recorder = recorder
        self.absent: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        self.absent = []
        for module, path, name in PATCH_POINTS:
            try:
                owner, attribute = resolve(module, path)
            except Absent as gone:
                self.absent.append(str(gone))
                continue
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.recorder.wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Time a region without span wrappers in the library."""
        self.remove()
        try:
            yield
        finally:
            self.install()


@dataclass
class Context:
    """What the probes share: the workload's inputs and the spans so far."""

    scratch: Path
    recorder: ledger.SpanRecorder
    patches: Patches
    xml: bytes
    index: repro.DocumentIndex
    queries: list[repro.TwigQuery]
    counts: list[int]
    sizes: list[int]
    donors: list[repro.LabeledTree]
    #: Set by the build probe: the summary and the file it was saved to.
    summary: repro.LatticeSummary | None = None
    saved: Path | None = None
    mine_s: float | None = None
    #: Set by the estimation probe: an estimator with every pool shape compiled.
    batched: repro.RecursiveDecompositionEstimator | None = None

    def built(self) -> repro.LatticeSummary:
        if self.summary is None:
            raise Absent("no summary: the build probe did not run")
        return self.summary


def median(values: list[float]) -> float:
    return ledger.percentile(values, 50)


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def median_time(fn: Callable[[], Any], reps: int = 3) -> float:
    return median([timed(fn)[0] for _ in range(reps)])


def voting(summary: repro.LatticeSummary) -> repro.RecursiveDecompositionEstimator:
    return repro.RecursiveDecompositionEstimator(summary, voting=True)


def metric_sum(registry: Any, name: str) -> float:
    """Sum over every label of an exported counter or gauge."""
    metric = registry.get(name)
    if metric is None:
        raise Absent(f"metric {name} is no longer exported")
    return float(sum(value for _, value in metric.samples()))


def probe_document(ctx: Context) -> dict[str, float]:
    with ctx.patches.suspended():
        return {
            "trees.serialize.parse_s": median_time(lambda: repro.tree_from_xml(ctx.xml)),
            "trees.matching.index_s": median_time(
                lambda: repro.DocumentIndex(ctx.index.tree)
            ),
        }


def probe_build(ctx: Context) -> dict[str, float]:
    """One serial dict-store build, with spans and under ``obs.observed``.

    The program's own mining counters are read from the observed window;
    they cost one registry update per candidate, well inside the noise
    of a build.
    """
    mark = ctx.recorder.mark()
    with repro.obs.observed() as (registry, _):
        summary = repro.LatticeSummary.build(ctx.index, K)
    ctx.summary = summary
    ctx.saved = ctx.scratch / "probe-dict.sum"
    with ctx.patches.suspended():
        save_s = median_time(lambda: summary.save(ctx.saved))
        load_s = median_time(lambda: repro.LatticeSummary.load(ctx.saved))
        keys = [key for key, _ in summary.patterns()]
        get = summary.store.get
        reps = max(1, 200_000 // len(keys))
        start = time.perf_counter()
        for _ in range(reps):
            for key in keys:
                get(key)
        get_ns = 1e9 * (time.perf_counter() - start) / (reps * len(keys))
    candidates = metric_sum(registry, "mining_candidates_total")
    ctx.mine_s = sum(ctx.recorder.since(mark, "mining.freqt.mine"))
    return {
        "mining.freqt.mine_s": ctx.mine_s,
        "mining.freqt.candidate_s": metric_sum(registry, "mining_candidate_seconds"),
        "mining.freqt.count_s": metric_sum(registry, "mining_counting_seconds"),
        "mining.freqt.candidates": candidates,
        "mining.freqt.kept_ratio": (
            metric_sum(registry, "mining_patterns_kept_total") / candidates
        ),
        "store.dict.fill_s": sum(ctx.recorder.since(mark, "store.dict.add")),
        "core.lattice.save_s": save_s,
        "core.lattice.load_s": load_s,
        "store.dict.bytes": summary.byte_size(),
        "store.dict.get_ns": get_ns,
    }


def probe_array_store(ctx: Context) -> dict[str, float]:
    if not hasattr(repro, "ArrayStore"):
        raise Absent("the array store is gone")
    array = ctx.built().to_store("array")
    path = ctx.scratch / "probe-array.sum"
    array.save(path)
    with ctx.patches.suspended():
        load_s = median_time(lambda: repro.LatticeSummary.load(path))
    return {"store.array.load_s": load_s, "store.array.bytes": array.byte_size()}


def probe_parallel_mining(ctx: Context) -> dict[str, float]:
    """Two-worker level-wise and shard-wise mining against the serial build."""
    if ctx.mine_s is None:
        raise Absent("no serial mining time: the build probe did not run")
    serial_s = ctx.mine_s
    require_kwarg(repro.mine_lattice, "workers")
    require_kwarg(repro.LatticeSummary.build, "shards")
    with ctx.patches.suspended():
        w2_s, _ = timed(lambda: repro.mine_lattice(ctx.index, K, workers=2))
    mark = ctx.recorder.mark()
    s4_w2_s, _ = timed(
        lambda: repro.LatticeSummary.build(ctx.index, K, shards=4, workers=2)
    )
    return {
        "parallel.mining.w2_s": w2_s,
        "parallel.mining.speedup": serial_s / w2_s,
        "mining.sharded.s4_w2_s": s4_w2_s,
        "mining.sharded.merge_s": sum(ctx.recorder.since(mark, "mining.sharded.merge")),
    }


def probe_estimation(ctx: Context) -> dict[str, float]:
    """Cold (compiling) and warm (replaying) single-query estimates."""
    summary = ctx.built()
    with ctx.patches.suspended():
        estimator = voting(summary)
        cold, values = [], []
        for query in ctx.queries:
            seconds, value = timed(lambda: estimator.estimate(query))
            cold.append(seconds)
            values.append(value)
        warm = [
            timed(lambda: estimator.estimate(query))[0]
            for _ in range(WARM_PASSES)
            for query in ctx.queries
        ]
        counted = ctx.queries[::LOOKUP_STRIDE]
        with repro.obs.observed() as (registry, _):
            observed = voting(summary)
            for query in counted:
                observed.estimate(query)
        ctx.batched = voting(summary)
        batch_cold_s, _ = timed(lambda: ctx.batched.estimate_batch(ctx.queries))
    sanity = repro.sanity_bound(ctx.counts)
    errors = [
        repro.absolute_relative_error(count, value, sanity)
        for count, value in zip(ctx.counts, values)
    ]
    metrics = {
        "core.recursive.cold_p50_us": 1e6 * median(cold),
        "core.recursive.cold_p90_us": 1e6 * ledger.percentile(cold, 90),
        "core.plan.warm_p50_us": 1e6 * median(warm),
        "core.plan.warm_p90_us": 1e6 * ledger.percentile(warm, 90),
        "core.plan.warm_ratio": median(cold) / median(warm),
        "core.lattice.lookups_per_cold": (
            metric_sum(registry, "lattice_lookups_total") / len(counted)
        ),
        "core.recursive.rel_error_pct": sum(errors) / len(errors),
        "core.recursive.batch_cold_s": batch_cold_s,
    }
    for size in PROBE_SIZES:
        of_size = [s for s, n in zip(cold, ctx.sizes) if n == size]
        metrics[f"core.recursive.cold_p50_us.size{size}"] = 1e6 * median(of_size)
    return metrics


def batch_qps(run: Callable[[], Any], size: int) -> float:
    """Queries per second of a warm batch, repeated for a stable figure."""
    run()
    reps = 0
    start = time.perf_counter()
    while True:
        run()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_TIMED_SECONDS and reps >= 2:
            return size * reps / elapsed


def probe_kernels(ctx: Context) -> dict[str, float]:
    """Warm batch throughput per execution backend across batch sizes.

    Runs on the estimator whose cold batch the estimation probe timed,
    so every pool shape is compiled.  ``plan`` is the default
    ``estimate_batch`` path and needs no kernels package.  Lowering is
    timed by the spans around ``lower_plan`` during the first
    ``array`` batch, numpy's batch preparation by those around
    ``prepare_batch`` during the first ``numpy`` batch.
    """
    estimator = ctx.batched
    if estimator is None:
        raise Absent("no warm estimator: the estimation probe did not run")
    try:
        kernels = importlib.import_module("repro.kernels")
        backends = [b for b in kernels.available_backends() if b != "plan"]
        require_kwarg(repro.RecursiveDecompositionEstimator.estimate_batch, "backend")
    except (ImportError, AttributeError, Absent):
        backends = []
    metrics: dict[str, float] = {}
    for backend, span in (("array", "kernels.lower_plan"), ("numpy", "kernels.prepare_batch")):
        if backend in backends:
            mark = ctx.recorder.mark()
            estimator.estimate_batch(ctx.queries, backend=backend)
            name = "kernels.lower_s" if backend == "array" else "kernels.numpy.prepare_s"
            metrics[name] = sum(ctx.recorder.since(mark, span))
    rng = random.Random(0)
    batches = {
        size: [ctx.queries[rng.randrange(len(ctx.queries))] for _ in range(size)]
        for size in BATCH_SIZES
    }
    with ctx.patches.suspended():
        for size, batch in batches.items():
            metrics[f"kernels.plan.qps.b{size}"] = batch_qps(
                lambda: estimator.estimate_batch(batch), size
            )
            for backend in backends:
                metrics[f"kernels.{backend}.qps.b{size}"] = batch_qps(
                    lambda: estimator.estimate_batch(batch, backend=backend), size
                )
        largest = BATCH_SIZES[-1]
        w2_s, _ = timed(lambda: estimator.estimate_batch(batches[largest], workers=2))
    metrics[f"parallel.batch.w2.qps.b{largest}"] = largest / w2_s
    metrics["parallel.batch.w2.speedup"] = (
        largest / w2_s / metrics[f"kernels.plan.qps.b{largest}"]
    )
    return metrics


def probe_streaming(ctx: Context) -> dict[str, float]:
    """Insert and delete donor records on the workload's own document.

    The streaming summary resumes from the build probe's saved summary.
    Each cycle inserts a donor record and deletes it again, so the
    document keeps its size; ``max_pending=2`` makes every third update
    compact, and reads rebuild their estimator after each compaction.
    """
    if not hasattr(repro, "StreamingSummary"):
        raise Absent("StreamingSummary is gone")
    ctx.built()
    streaming = repro.StreamingSummary.restore(
        ctx.saved, repro.tree_from_xml(ctx.xml), max_pending=STREAM_MAX_PENDING
    )
    mark = ctx.recorder.mark()
    rng = random.Random(0)
    inserts, deletes, reads = [], [], []
    snapshot, estimator = None, None
    for cycle in range(STREAM_CYCLES):
        seconds, _ = timed(lambda: streaming.insert(ctx.donors[cycle % len(ctx.donors)]))
        inserts.append(seconds)
        document = streaming.document
        last = len(document.child_ids(document.root)) - 1
        seconds, _ = timed(lambda: streaming.delete(last))
        deletes.append(seconds)
        for _ in range(STREAM_READS):
            query = ctx.queries[rng.randrange(len(ctx.queries))]
            start = time.perf_counter()
            current = streaming.summary()
            if current is not snapshot:
                snapshot, estimator = current, voting(current)
            estimator.estimate(query)
            reads.append(time.perf_counter() - start)

    def span_median(name: str, scale: float) -> float:
        return scale * median(ctx.recorder.since(mark, name))

    return {
        "core.streaming.insert_ms": 1e3 * median(inserts),
        "core.streaming.delete_ms": 1e3 * median(deletes),
        "core.streaming.compact_ms": span_median("core.streaming.compact", 1e3),
        "trees.matching.index_ms": span_median("trees.matching.index", 1e3),
        "mining.sharded.anchored_ms": span_median("mining.sharded.anchored_counts", 1e3),
        "mining.freqt.record_mine_ms": span_median("mining.freqt.record_mine", 1e3),
        "store.dict.merge_us": span_median("store.dict.merge", 1e6),
        "core.streaming.read_p50_us": 1e6 * median(reads),
        "core.streaming.read_p90_us": 1e6 * ledger.percentile(reads, 90),
    }


PROBES: tuple[tuple[Callable[[Context], dict[str, float]], tuple[str, ...]], ...] = (
    (probe_document, ("trees.serialize.parse_s", "trees.matching.index_s")),
    (
        probe_build,
        (
            "mining.freqt.mine_s",
            "mining.freqt.candidate_s",
            "mining.freqt.count_s",
            "mining.freqt.candidates",
            "mining.freqt.kept_ratio",
            "store.dict.fill_s",
            "core.lattice.save_s",
            "core.lattice.load_s",
            "store.dict.bytes",
            "store.dict.get_ns",
        ),
    ),
    (probe_array_store, ("store.array.load_s", "store.array.bytes")),
    (
        probe_parallel_mining,
        (
            "parallel.mining.w2_s",
            "parallel.mining.speedup",
            "mining.sharded.s4_w2_s",
            "mining.sharded.merge_s",
        ),
    ),
    (
        probe_estimation,
        (
            "core.recursive.cold_p50_us",
            "core.recursive.cold_p90_us",
            *(f"core.recursive.cold_p50_us.size{size}" for size in PROBE_SIZES),
            "core.plan.warm_p50_us",
            "core.plan.warm_p90_us",
            "core.plan.warm_ratio",
            "core.lattice.lookups_per_cold",
            "core.recursive.rel_error_pct",
            "core.recursive.batch_cold_s",
        ),
    ),
    (
        probe_kernels,
        (
            *(
                f"kernels.{backend}.qps.b{size}"
                for backend in ("plan", "array", "numpy")
                for size in BATCH_SIZES
            ),
            "kernels.lower_s",
            "kernels.numpy.prepare_s",
            f"parallel.batch.w2.qps.b{BATCH_SIZES[-1]}",
            "parallel.batch.w2.speedup",
        ),
    ),
    (
        probe_streaming,
        (
            "core.streaming.insert_ms",
            "core.streaming.delete_ms",
            "core.streaming.compact_ms",
            "trees.matching.index_ms",
            "mining.sharded.anchored_ms",
            "mining.freqt.record_mine_ms",
            "store.dict.merge_us",
            "core.streaming.read_p50_us",
            "core.streaming.read_p90_us",
        ),
    ),
)


def run_probes(
    inputs: Path, recorder: ledger.SpanRecorder, patches: Patches, pool: list[Any]
) -> tuple[dict[str, float], list[str]]:
    """Every probe's metrics, and the names of those reported absent."""
    xml = (inputs / "doc.xml").read_bytes()
    index = repro.DocumentIndex(repro.tree_from_xml(xml))
    probed = [entry for entry in pool if entry.kind == "pos" and entry.size in PROBE_SIZES]
    ctx = Context(
        scratch=inputs.parent,
        recorder=recorder,
        patches=patches,
        xml=xml,
        index=index,
        queries=[entry.query for entry in probed],
        counts=[repro.count_matches(entry.query.tree, index) for entry in probed],
        sizes=[entry.size for entry in probed],
        donors=[
            repro.tree_from_xml(line)
            for line in (inputs / "donors.xml").read_text(encoding="utf-8").splitlines()
        ],
    )
    values: dict[str, float] = {}
    absent: list[str] = []
    for probe, names in PROBES:
        try:
            values.update(probe(ctx))
        except Absent:
            pass
        absent += [name for name in names if name not in values]
    return values, absent
