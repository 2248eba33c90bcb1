"""Workload generators and measuring loops of the performance ledger.

``run.py`` runs this file as two fresh subprocesses per workload::

    python benchmarks/ledger/workloads.py generate WORKLOAD SEED DIR
    python benchmarks/ledger/workloads.py measure WORKLOAD DIR TRACE OUT [--half]

``generate`` writes the workload's inputs into DIR: the XML document,
the query pool with true counts, donor records, pre-drawn query and
update sequences and, where the workload serves from one, a pre-built
summary.  ``measure`` reads only those files, times a fixed number of
calls into the public ``repro`` API from one single-threaded client in
a closed loop (half of them with ``--half``), checks the outputs and
writes a JSON result to OUT.  With TRACE set it records benchmark-side
spans around the calls into each layer and then runs the layer probes
of ``probes.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
import traceback
from array import array
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import probes  # noqa: E402
import repro  # noqa: E402

#: Lattice level of every summary the ledger builds.
K = 4
#: Layers whose self-time share the traced loop reports.
MODULES = ("trees", "mining", "store", "core", "harness")
#: Largest donor record (nodes) an update inserts.
MAX_RECORD = 200
#: The memo of :func:`plan_work`: canon -> (removable pairs, sub-twigs).
PlanCache = dict[
    repro.trees.Canon, tuple[int, list[tuple[repro.trees.Canon, repro.LabeledTree]]]
]


@dataclass(frozen=True)
class Spec:
    """What one workload generates.

    Documents are cut to exactly ``nodes`` nodes (a pre-order prefix of
    a generated document is a connected tree), so that a different seed
    changes the document's content but not its size.
    """

    dataset: str
    nodes: int
    pool_sizes: tuple[int, ...]
    per_size: int
    donor_scale: int
    #: Percentile reported as ``op_tail_ms``.  It keeps at least ten
    #: samples beyond it at the workload's op count, except for ``build``,
    #: where only the median keeps ten beyond its 28 ops.
    tail_q: float
    #: Set-up repetitions; ``setup_s`` is their median.
    setup_reps: int
    #: Passes of the measured loop: builds (``build``), fresh estimators
    #: (``optimizer``, ``batch``) or cycles (``stream``).  Fixed, so that
    #: two commits do identical work; sized to about ``run_seconds`` at
    #: the reference speed.
    passes: int


SPECS = {
    # The build workload's pool only feeds the layer probes.
    "build": Spec("xmark", 8_000, (5, 6, 7, 8), 50, 20, 75.0, 41, 28),
    "optimizer": Spec("imdb", 5_000, (4, 5, 6, 7, 8), 250, 50, 99.0, 41, 3),
    "batch": Spec("xmark", 12_000, (5, 6, 7, 8), 250, 20, 80.0, 41, 3),
    "stream": Spec("nasa", 6_700, (5, 6, 7, 8), 100, 200, 80.0, 5, 60),
}

#: Optimizer stream of one pass: every pool shape once plus Zipf(1.1)
#: draws, size-6 negatives mixed in, lattice-level negatives kept aside
#: for the oracle.
OPTIMIZER_DRAWS = 12_500
OPTIMIZER_NEGATIVES = 250
ORACLE_NEGATIVES = 50
ZIPF_EXPONENT = 1.1
#: Batch: warm batches per pass and queries per warm batch.
BATCH_WARM = 50
BATCH_SIZE = 2_000
#: Stream: reads per cycle.
STREAM_READS = 10
STREAM_MAX_PENDING = 64
#: Pools: distinct shapes drawn per shape kept, and the number of draws
#: in a row without a new shape after which a size counts as exhausted.
OVERSAMPLE = 3
SATURATED = 2_000
#: Build: stored patterns compared with the exact matcher.
BUILD_ORACLE_PATTERNS = 50
#: Batch: largest relative difference allowed between a cold batch and a
#: fresh estimator's per-query ``estimate()``.  They agree to the last
#: bit or to within a few units in it (voting sums sub-twig values in
#: another order when a batch shares them); real divergence is far larger.
BATCH_REL_TOL = 1e-13


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def make_document(dataset: str, nodes: int, seed: int) -> repro.LabeledTree:
    """A ``dataset`` document of exactly ``nodes`` nodes, from ``seed``.

    Generated at the smallest scale that reaches ``nodes``, then cut to
    a pre-order prefix, so the cut removes less than one scale step from
    the end of the document.
    """
    scale = 1
    document = repro.generate_dataset(dataset, scale, seed=seed)
    while document.size < nodes:
        scale = max(scale + 1, scale * nodes // document.size)
        document = repro.generate_dataset(dataset, scale, seed=seed)
    while scale > 1:
        smaller = repro.generate_dataset(dataset, scale - 1, seed=seed)
        if smaller.size < nodes:
            break
        scale, document = scale - 1, smaller
    prefix = list(document.preorder())[:nodes]
    return document.induced_subtree(prefix)


def make_donors(dataset: str, scale: int, seed: int) -> list[str]:
    """Records to insert: the shallowest subtrees of 2-200 nodes, as XML."""
    document = repro.generate_dataset(dataset, scale, seed=seed)
    records: list[str] = []
    queue = deque(document.child_ids(document.root))
    while queue:
        node = queue.popleft()
        record = document.subtree_at(node)
        if record.size <= MAX_RECORD:
            if record.size >= 2:
                records.append(repro.tree_to_xml(record))
        else:
            queue.extend(document.child_ids(node))
    return records


def plan_work(tree: repro.LabeledTree, cache: PlanCache) -> int:
    """Leaf-pair splits a cold voting compile of ``tree`` expands.

    The voting recursion memoises sub-twigs by canonical form, looks up
    those of at most ``K`` nodes, and splits every larger one on each
    pair of its removable nodes.  Its work is therefore the sum, over
    the distinct sub-twigs above ``K`` nodes, of their removable pairs.
    Those sub-twigs are the ones reached by removing one removable node
    at a time (a pair's remainder is also reached that way).  Cold
    compile time tracks this sum closely (correlation 0.98-0.99 on
    size-8 imdb twigs; the leaf count alone gives 0.85).  ``cache`` maps
    a canon to its pairs and its sub-twigs, shared across calls.
    """
    total = 0
    seen: set[repro.trees.Canon] = set()
    stack = [(repro.canon(tree), tree)]
    while stack:
        key, sub = stack.pop()
        if key in seen or sub.size <= K:
            continue
        seen.add(key)
        if key not in cache:
            nodes = sub.removable_nodes()
            parts = [sub.remove_node(node) for node in nodes]
            cache[key] = (math.comb(len(nodes), 2), [(repro.canon(p), p) for p in parts])
        pairs, parts_of = cache[key]
        total += pairs
        stack.extend(parts_of)
    return total


def sample_pool(
    document: repro.LabeledTree,
    sizes: tuple[int, ...],
    per_size: int,
    rng: random.Random,
    cache: PlanCache,
) -> dict[int, list[repro.TwigQuery]]:
    """``per_size`` distinct occurring twigs of each size.

    Each draw grows a random connected subtree from a random document
    node and keeps its shape if new, so shapes turn up in proportion to
    how often they occur.  Up to ``OVERSAMPLE * per_size`` shapes are
    drawn; sorted by :func:`plan_work`, they are picked at evenly spaced
    positions.  This systematic pick keeps the pool's compile cost the
    same from seed to seed.  (The level-wise miner's capped frontier,
    which ``positive_workloads`` samples, makes the pool's plan sizes
    vary by 30-50% between seeds.)
    """
    pool = {}
    for size in sizes:
        work: dict[repro.trees.Canon, int] = {}
        misses = 0
        while len(work) < OVERSAMPLE * per_size and misses < SATURATED:
            chosen = [rng.randrange(document.size)]
            frontier = list(document.child_ids(chosen[0]))
            while len(chosen) < size and frontier:
                node = frontier.pop(rng.randrange(len(frontier)))
                chosen.append(node)
                frontier.extend(document.child_ids(node))
            misses += 1
            if len(chosen) == size:
                twig = document.induced_subtree(chosen)
                shape = repro.canon(twig)
                if shape not in work:
                    work[shape] = plan_work(twig, cache)
                    misses = 0
        ordered = sorted(work, key=work.__getitem__)
        step = len(ordered) / per_size
        if step > 1:
            ordered = [ordered[int((i + 0.5) * step)] for i in range(per_size)]
        pool[size] = [repro.TwigQuery(repro.trees.canon_to_tree(shape)) for shape in ordered]
    return pool


def with_counts(
    index: repro.DocumentIndex, size: int, queries: list[repro.TwigQuery]
) -> repro.QueryWorkload:
    """``queries`` with their true counts from the exact matcher."""
    counts = [repro.count_matches(query.tree, index) for query in queries]
    return repro.QueryWorkload(size=size, queries=queries, true_counts=counts)


def pool_rows(pool: dict[int, list[repro.TwigQuery]], kind: str = "pos") -> list[str]:
    return [
        f"{kind}\t{size}\t{repro.encode_tree(query.tree)}"
        for size, queries in sorted(pool.items())
        for query in queries
    ]


def stratified_ranks(
    rows: list[str],
    rng: random.Random,
    cache: PlanCache,
) -> list[int]:
    """Row indices in popularity order, the query classes taking turns.

    A class is a (kind, size) pair.  Rank ``r`` goes to class ``r % n``,
    so every seed puts the same mix of query sizes at the head of the
    Zipf distribution.  Within a class, shapes whose :func:`plan_work`
    is closest to the class median come first (ties in seeded order), so
    the hot shapes cost about the same whatever the seed.
    """
    classes: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for position, row in enumerate(rows):
        kind, size, encoded = row.split("\t")
        work = plan_work(repro.decode_tree(encoded), cache)
        classes.setdefault((kind, size), []).append((work, position))
    members = []
    for member in classes.values():
        rng.shuffle(member)
        median = sorted(work for work, _ in member)[len(member) // 2]
        member.sort(key=lambda entry: abs(entry[0] - median))
        members.append([position for _, position in member])
    order: list[int] = []
    for turn in range(max(map(len, members))):
        order += [member[turn] for member in members if turn < len(member)]
    return order


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> None:
    """Write every input ``workload`` needs for ``seed`` into ``out``."""
    spec = SPECS[workload]
    out.mkdir(parents=True, exist_ok=True)
    document = make_document(spec.dataset, spec.nodes, seed)
    (out / "doc.xml").write_bytes(repro.tree_to_xml(document).encode("utf-8"))
    index = repro.DocumentIndex(document)
    rng = random.Random(seed)
    cache: PlanCache = {}
    positives = sample_pool(document, spec.pool_sizes, spec.per_size, rng, cache)
    rows = pool_rows(positives)
    donors = make_donors(spec.dataset, spec.donor_scale, seed + 100)
    write_lines(out / "donors.xml", donors)
    if workload in ("optimizer", "batch"):
        repro.LatticeSummary.build(index, K).save(out / "summary.txt")
    if workload == "optimizer":
        negatives = repro.negative_workload(
            index, with_counts(index, 6, positives[6]), seed=seed, target=OPTIMIZER_NEGATIVES
        )
        rows += pool_rows({6: negatives.queries}, "neg")
        # Oracle rows are true count and shape: the lattice-level
        # positives, which must estimate exactly, and negatives kept out
        # of the pool, which must estimate 0.
        lattice = with_counts(index, K, positives[K])
        lattice_negatives = repro.negative_workload(
            index, lattice, seed=seed, target=ORACLE_NEGATIVES
        )
        write_lines(
            out / "oracle.tsv",
            [
                f"{count}\t{repro.encode_tree(query.tree)}"
                for group in (lattice, lattice_negatives)
                for query, count in group
            ],
        )
        # Every shape is asked at least once, so each pass compiles the
        # whole pool: which rare shapes a Zipf sample happens to include
        # would otherwise move the cold-compile tail by 10% from seed to
        # seed.
        order = stratified_ranks(rows, rng, cache)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(order))]
        draws = order + rng.choices(order, weights=weights, k=OPTIMIZER_DRAWS - len(order))
        rng.shuffle(draws)
        write_lines(out / "draws.txt", [" ".join(map(str, draws))])
    elif workload == "batch":
        write_lines(
            out / "draws.txt",
            [
                " ".join(str(rng.randrange(len(rows))) for _ in range(BATCH_SIZE))
                for _ in range(BATCH_WARM)
            ],
        )
    elif workload == "stream":
        # Each cycle inserts one record and deletes one, so the document
        # holds `records` root children before a delete and the delete
        # position is drawn from range(records + 1).
        records = len(document.child_ids(document.root))
        write_lines(
            out / "cycles.txt",
            [
                " ".join(
                    [str(rng.randrange(records + 1))]
                    + [str(rng.randrange(len(rows))) for _ in range(STREAM_READS)]
                )
                for _ in range(spec.passes)
            ],
        )
    write_lines(out / "pool.tsv", rows)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclass
class Query:
    kind: str
    size: int
    query: repro.TwigQuery


def read_pool(path: Path) -> list[Query]:
    pool = []
    for line in path.read_text(encoding="utf-8").splitlines():
        kind, size, encoded = line.split("\t")
        pool.append(Query(kind, int(size), repro.TwigQuery(repro.decode_tree(encoded))))
    return pool


def read_ints(path: Path) -> list[list[int]]:
    return [
        [int(token) for token in line.split()]
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def yardstick() -> float:
    """Seconds of a fixed interpreter workload.

    The geometric mean of an integer loop and a loop of tuple, string
    and dict churn.
    """
    start = time.perf_counter()
    total = 0
    for value in range(30_000):
        total += value * value
    middle = time.perf_counter()
    table = {}
    for value in range(10_000):
        table[(value & 1023, str(value & 255))] = (value, total)
    end = time.perf_counter()
    return math.sqrt((middle - start) * (end - middle))


def calibration() -> float:
    """The machine-speed yardstick: the median of three :func:`yardstick` runs.

    On a shared host the speed of the same code drifts by 20-50% from
    minute to minute; timings divided by this yardstick, taken around
    them, drift by a few percent.  One run alone is off by 10-20% now
    and then, which the median of three removes.
    """
    return sorted(yardstick() for _ in range(3))[1]


#: calibration() on the reference machine (2-core x86-64 container,
#: CPython 3.11, quiet); times are reported at this speed.
REFERENCE_CALIBRATION = 0.0019
#: Seconds between calibrations during a measured loop.
CALIBRATE_EVERY = 0.2


class Samples:
    """Timed samples as two flat arrays: start times and durations.

    Flat arrays keep the harness's own memory small and the same from
    run to run, so ``peak_rss_mb`` is the program's.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.seconds = array("d")

    def add(self, start: float, seconds: float) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.seconds)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.starts, self.seconds)


class Outcome:
    """Ops and checks attempted, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)


class Run:
    """One measuring stage: its clock, spans, samples and outcome.

    :meth:`tick`, called before each timed sample, interleaves
    calibrations so :func:`ledger.calibrated` can scale every sample to
    the reference machine speed.
    """

    def __init__(self, passes: int, recorder: ledger.SpanRecorder | None) -> None:
        #: Passes of the measured loop (see ``Spec.passes``).
        self.passes = passes
        self.recorder = recorder
        self.outcome = Outcome()
        self.setup = Samples()
        self.ops = Samples()
        #: Timed work outside the ops that still counts toward items_per_s.
        self.other = Samples()
        self.calibrations: list[tuple[float, float]] = []
        self.items = 0
        self.rss_mb = 0.0
        self.extra: dict[str, Any] = {}
        self._next_calibration = 0.0
        #: Self time per span name recorded between start() and stop().
        self.loop_self: dict[str, float] = {}

    def span(self, name: str) -> ContextManager[None]:
        if self.recorder is None:
            return _NO_SPAN
        return self.recorder.span(name)

    def op(self, name: str) -> ContextManager[None]:
        """The span of one measured op, opening a new trace."""
        if self.recorder is not None:
            self.recorder.new_trace()
        return self.span(name)

    def tick(self, force: bool = False) -> float:
        """Calibrate when one is due; return the start time of the next sample."""
        now = time.perf_counter()
        if force or now >= self._next_calibration:
            self.calibrations.append((now, calibration()))
            now = time.perf_counter()
            self._next_calibration = now + CALIBRATE_EVERY
        return now

    def start(self) -> None:
        if self.recorder is not None:
            self.loop_self = dict(self.recorder.self_seconds)

    def stop(self) -> None:
        """End the measured loop: take peak memory and the loop's self time."""
        self.tick(force=True)
        self.rss_mb = peak_rss_mb()
        if self.recorder is not None:
            before = self.loop_self
            self.loop_self = {
                name: seconds - before.get(name, 0.0)
                for name, seconds in self.recorder.self_seconds.items()
            }

    def scaled(self, samples: Samples) -> list[float]:
        return ledger.calibrated(samples, self.calibrations, REFERENCE_CALIBRATION)


_NO_SPAN: ContextManager[None] = nullcontext()


def timed_setup(run: Run, reps: int, build: Callable[[], Any]) -> Any:
    """Run ``build`` ``reps`` times, recording each wall time; return the last."""
    built = None
    for _ in range(reps):
        start = run.tick(force=True)
        built = build()
        run.setup.add(start, time.perf_counter() - start)
    run.tick(force=True)
    return built


def measure_build(run: Run, inputs: Path) -> None:
    """bytes -> tree -> DocumentIndex -> LatticeSummary.build -> save."""
    spec = SPECS["build"]
    path = inputs / "doc.xml"

    def load() -> repro.DocumentIndex:
        return repro.DocumentIndex(repro.tree_from_xml(path.read_bytes()))

    index = timed_setup(run, spec.setup_reps, load)
    xml = path.read_bytes()
    saved = inputs.parent / "build.sum"
    digests: list[str] = []
    run.start()
    for _ in range(run.passes):
        start = run.tick()
        with run.op("harness.build"):
            with run.span("trees.serialize.tree_from_xml"):
                document = repro.tree_from_xml(xml)
            with run.span("trees.matching.DocumentIndex"):
                built_index = repro.DocumentIndex(document)
            with run.span("core.lattice.LatticeSummary.build"):
                summary = repro.LatticeSummary.build(built_index, K)
            with run.span("core.lattice.LatticeSummary.save"):
                summary.save(saved)
        run.ops.add(start, time.perf_counter() - start)
        run.items += document.size
        digests.append(hashlib.sha256(saved.read_bytes()).hexdigest())
        run.outcome.record(
            digests[-1] == digests[0], f"build {len(digests)} saved different bytes"
        )
    run.stop()
    patterns = sorted(summary.patterns())
    sample = random.Random(0).sample(patterns, min(BUILD_ORACLE_PATTERNS, len(patterns)))
    for pattern, stored in sample:
        exact = repro.count_matches(pattern, index)
        run.outcome.record(
            exact == stored, f"stored count {stored} != exact {exact} for {pattern!r}"
        )


def load_estimator(path: Path) -> repro.RecursiveDecompositionEstimator:
    return repro.RecursiveDecompositionEstimator(
        repro.LatticeSummary.load(path), voting=True
    )


def measure_optimizer(run: Run, inputs: Path) -> None:
    """Single-query ``estimate()`` over a Zipf stream, fresh estimator per pass."""
    spec = SPECS["optimizer"]
    estimator = timed_setup(
        run, spec.setup_reps, lambda: load_estimator(inputs / "summary.txt")
    )
    summary = estimator.lattice
    pool = read_pool(inputs / "pool.tsv")
    draws = read_ints(inputs / "draws.txt")[0]
    first: dict[int, float] = {}
    run.start()
    for _ in range(run.passes):
        estimator = repro.RecursiveDecompositionEstimator(summary, voting=True)
        for draw in draws:
            query = pool[draw].query
            start = run.tick()
            with run.op("core.recursive.estimate"):
                value = estimator.estimate(query)
            run.ops.add(start, time.perf_counter() - start)
            reference = first.setdefault(draw, value)
            run.outcome.record(
                value == reference,
                f"estimate of pool[{draw}] changed: {value!r} != {reference!r}",
            )
        run.items += len(draws)
    run.stop()
    run.extra["cold_share"] = len(set(draws)) / len(draws)
    checker = repro.RecursiveDecompositionEstimator(summary, voting=True)
    for line in (inputs / "oracle.tsv").read_text(encoding="utf-8").splitlines():
        count, encoded = line.split("\t")
        value = checker.estimate(repro.TwigQuery(repro.decode_tree(encoded)))
        run.outcome.record(
            value == int(count), f"lattice-level estimate {value!r} != true count {count}"
        )


def check_cold_batch(
    run: Run,
    summary: repro.LatticeSummary,
    queries: list[repro.TwigQuery],
    values: list[float],
    ran: repro.RecursiveDecompositionEstimator,
) -> None:
    """Check a cold batch's ``values`` against per-query estimates.

    Two references: a fresh estimator's per-query ``estimate()`` must
    agree to within :data:`BATCH_REL_TOL`, and ``ran``, an estimator
    whose cold batch returned ``values``, must return them bit for bit.
    The number of queries on which the fresh estimator differs at all is
    a note.
    """
    fresh = repro.RecursiveDecompositionEstimator(summary, voting=True)
    differ = 0
    for query, value in zip(queries, values):
        want = fresh.estimate(query)
        differ += value != want
        run.outcome.record(
            math.isclose(value, want, rel_tol=BATCH_REL_TOL, abs_tol=0.0),
            f"cold batch value {value!r} != per-query estimate {want!r}",
        )
    run.extra["cold_batch_last_bit_diffs"] = differ
    run.outcome.record(
        values == [ran.estimate(query) for query in queries],
        "batch != per-query estimates of the estimator that ran it",
    )


def measure_batch(run: Run, inputs: Path) -> None:
    """One cold ``estimate_batch(pool)`` then warm batches, per fresh estimator."""
    spec = SPECS["batch"]
    estimator = timed_setup(
        run, spec.setup_reps, lambda: load_estimator(inputs / "summary.txt")
    )
    summary = estimator.lattice
    queries = [entry.query for entry in read_pool(inputs / "pool.tsv")]
    batches = read_ints(inputs / "draws.txt")
    batch_queries = [[queries[i] for i in batch] for batch in batches]
    reference: list[float] = []
    expected: list[list[float]] = []
    run.start()
    for _ in range(run.passes):
        estimator = repro.RecursiveDecompositionEstimator(summary, voting=True)
        start = run.tick()
        with run.op("core.recursive.estimate_batch"):
            values = estimator.estimate_batch(queries)
        run.other.add(start, time.perf_counter() - start)
        run.items += len(queries)
        if not reference:
            # The first cold batch is the reference: every later cold
            # batch must repeat it, and warm batches return its values.
            reference = values
            expected = [[reference[i] for i in batch] for batch in batches]
        run.outcome.record(values == reference, "cold batch differs from the first one")
        for batch, want in zip(batch_queries, expected):
            start = run.tick()
            with run.op("core.recursive.estimate_batch"):
                values = estimator.estimate_batch(batch)
            run.ops.add(start, time.perf_counter() - start)
            run.items += len(batch)
            run.outcome.record(values == want, "warm batch != per-query estimates")
    run.stop()
    run.extra["cold_batch_s"] = ledger.percentile(run.scaled(run.other), 50)
    check_cold_batch(run, summary, queries, reference, estimator)


def measure_stream(run: Run, inputs: Path) -> None:
    """Cycles of insert, delete and reads against a ``StreamingSummary``."""
    spec = SPECS["stream"]
    xml = (inputs / "doc.xml").read_bytes()
    documents = [repro.tree_from_xml(xml) for _ in range(spec.setup_reps)]
    streaming = timed_setup(
        run,
        spec.setup_reps,
        lambda: repro.StreamingSummary(
            documents.pop(), K, max_pending=STREAM_MAX_PENDING
        ),
    )
    donors = [
        repro.tree_from_xml(line)
        for line in (inputs / "donors.xml").read_text(encoding="utf-8").splitlines()
    ]
    queries = [entry.query for entry in read_pool(inputs / "pool.tsv")]
    cycles = read_ints(inputs / "cycles.txt")
    records = len(streaming.document.child_ids(streaming.document.root))
    updates, reads = Samples(), Samples()
    snapshot = None
    estimator = None
    recompiles = 0
    run.start()
    for cycle in range(run.passes):
        delete_at, *reads_of = cycles[cycle]
        start = run.tick()
        with run.op("harness.cycle"):
            with run.span("core.streaming.StreamingSummary.insert"):
                streaming.insert(donors[cycle % len(donors)])
            inserted = time.perf_counter()
            with run.span("core.streaming.StreamingSummary.delete"):
                streaming.delete(delete_at)
            deleted = time.perf_counter()
            for draw in reads_of:
                read_start = time.perf_counter()
                with run.span("core.recursive.estimate"):
                    # A new snapshot object means a compaction happened:
                    # the reader's compiled plans are stale.
                    current = streaming.summary()
                    if current is not snapshot:
                        snapshot = current
                        estimator = repro.RecursiveDecompositionEstimator(
                            current, voting=True
                        )
                        recompiles += 1
                    estimator.estimate(queries[draw])
                reads.add(read_start, time.perf_counter() - read_start)
        run.ops.add(start, time.perf_counter() - start)
        updates.add(start, inserted - start)
        updates.add(inserted, deleted - inserted)
        run.items += 2
        document = streaming.document
        run.outcome.record(
            len(document.child_ids(document.root)) == records,
            f"cycle {cycle} changed the number of records",
        )
    run.stop()
    run.extra["update_p50_ms"] = 1e3 * ledger.percentile(run.scaled(updates), 50)
    run.extra["read_p50_us"] = 1e6 * ledger.percentile(run.scaled(reads), 50)
    run.extra["snapshot_recompiles"] = 100.0 * recompiles / run.items
    final = streaming.summary(fresh=True)
    fresh = repro.LatticeSummary.build(streaming.document, K)
    run.outcome.record(
        dict(final.patterns()) == dict(fresh.patterns()),
        "streamed summary != fresh build of the final document",
    )


MEASURES = {
    "build": measure_build,
    "optimizer": measure_optimizer,
    "batch": measure_batch,
    "stream": measure_stream,
}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, run: Run) -> dict[str, float]:
    """The end-to-end metrics, every time scaled to the reference speed."""
    ops = run.scaled(run.ops)
    return {
        "setup_s": ledger.percentile(run.scaled(run.setup), 50),
        "op_p50_ms": 1e3 * ledger.percentile(ops, 50),
        "op_tail_ms": 1e3 * ledger.percentile(ops, SPECS[workload].tail_q),
        "items_per_s": run.items / (sum(ops) + sum(run.scaled(run.other))),
        "peak_rss_mb": run.rss_mb,
    }


def measure(workload: str, inputs: Path, traced: bool, half: bool) -> dict[str, Any]:
    """Run one measuring pass; the result ``run.py`` reads back.

    ``half`` runs half the workload's fixed loop: a traced run measures
    an untraced and a traced half.
    """
    recorder = ledger.SpanRecorder() if traced else None
    passes = SPECS[workload].passes
    run = Run(max(1, passes // 2) if half else passes, recorder)
    result: dict[str, Any] = {"workload": workload, "traced": traced}
    patches = probes.Patches(recorder) if recorder is not None else None
    try:
        if patches is not None:
            patches.install()
        MEASURES[workload](run, inputs)
        result["metrics"] = end_to_end(workload, run)
        tail_q = SPECS[workload].tail_q
        result["samples"] = {
            "ops": len(run.ops),
            "setup_reps": len(run.setup),
            "tail_q": tail_q,
            "beyond": ledger.samples_beyond(len(run.ops), tail_q),
        }
        calibrations = [seconds for _, seconds in run.calibrations]
        result["extra"] = dict(
            run.extra,
            raw_op_p50_ms=1e3 * ledger.percentile(run.ops.seconds, 50),
            calibration_ms=1e3 * ledger.percentile(calibrations, 50),
            calibrations=len(calibrations),
            passes=run.passes,
        )
        if recorder is not None and patches is not None:
            layer = {
                f"{module}.self_pct": share
                for module, share in ledger.module_shares(run.loop_self, MODULES).items()
            }
            layer["core.streaming.snapshot_recompiles"] = run.extra.get(
                "snapshot_recompiles", 0.0
            )
            layer["harness.calibration_us"] = 1e6 * ledger.percentile(calibrations, 50)
            values, absent = probes.run_probes(
                inputs, recorder, patches, read_pool(inputs / "pool.tsv")
            )
            layer.update(values)
            result["per_layer"] = layer
            result["absent"] = absent
            result["absent_patches"] = patches.absent
    except Exception:  # the stage must report, not crash: run.py counts it
        run.outcome.record(False, traceback.format_exc())
    finally:
        if patches is not None:
            patches.remove()
    result["attempted"] = run.outcome.attempted
    result["failed"] = run.outcome.failed
    result["failures"] = run.outcome.failures
    if recorder is not None:
        result["recorder"] = recorder
    return result


def check_source() -> None:
    """Refuse to measure a ``repro`` imported from outside this checkout."""
    imported = Path(repro.__file__).resolve().parent
    if imported != (SOURCE / "repro").resolve():
        raise SystemExit(f"error: repro imported from {imported}, not {SOURCE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    stages = parser.add_subparsers(dest="stage", required=True)
    gen = stages.add_parser("generate")
    gen.add_argument("workload", choices=sorted(SPECS))
    gen.add_argument("seed", type=int)
    gen.add_argument("dir", type=Path)
    meas = stages.add_parser("measure")
    meas.add_argument("workload", choices=sorted(SPECS))
    meas.add_argument("dir", type=Path)
    meas.add_argument("trace", type=int, choices=(0, 1))
    meas.add_argument("out", type=Path)
    meas.add_argument("--half", action="store_true")
    meas.add_argument("--trace-prefix", type=Path, default=None)
    args = parser.parse_args(argv)
    check_source()
    if args.stage == "generate":
        generate(args.workload, args.seed, args.dir)
        return 0
    result = measure(args.workload, args.dir, bool(args.trace), args.half)
    recorder = result.pop("recorder", None)
    if recorder is not None and args.trace_prefix is not None:
        args.trace_prefix.with_suffix(".json").write_text(
            json.dumps(recorder.chrome_trace()), encoding="utf-8"
        )
        args.trace_prefix.with_suffix(".txt").write_text(
            ledger.self_time_table(recorder), encoding="utf-8"
        )
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
