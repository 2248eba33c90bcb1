"""Command-line interface for the TreeLattice toolkit.

Subcommands mirror the deployment workflow:

* ``summarize`` — parse an XML file, mine its k-lattice, optionally
  prune δ-derivable patterns, write the summary to disk (``--store
  {dict,array}`` picks the count backend; ``array`` writes the compact
  binary container; ``--stream`` builds through the streaming insert
  path, bit-identical in counts to the one-shot build);
* ``merge`` — combine two or more saved summaries of the same lattice
  level into one (counts add per pattern — the store monoid applied at
  the corpus level);
* ``estimate`` — estimate a twig query against a saved summary, or a
  whole workload file with ``--batch`` (fanned out with ``--workers``);
  ``--store`` converts the loaded summary to another backend first;
  ``--explain`` / ``--explain-json`` print the derivation assembled
  from the spans of the very execution that produced the answer;
* ``explain`` — show the full decomposition trace of an estimate;
* ``trace`` — run estimation under the span flight recorder and write
  a Chrome-trace file (load it at ``chrome://tracing``);
* ``exact`` — exact match count straight off the document (ground truth);
* ``mine`` — report occurring-pattern counts per level (Table 2 style);
* ``stats`` — summary structure plus live estimation metrics;
* ``dataset`` — generate one of the paper's synthetic stand-in corpora.

``summarize`` and ``estimate`` accept ``--metrics-json PATH`` and
``--trace PATH`` to capture the run's metrics registry and structured
estimation trace (see ``docs/observability.md``).

``estimate`` accepts ``--retry N`` / ``--timeout S`` to give the
``--batch --workers`` fan-out a failure budget: crashed, hung, or
failed chunks are retried (with capped exponential backoff) and, once
the budget runs out, completed serially in-process (see
``docs/robustness.md``).

Exit codes: 0 success; 2 usage errors (unparseable query, missing or
corrupt summary file, negative ``--workers``); 3 completed but degraded
(parallel work fell back to the serial path after exhausting its retry
budget — results are still exact); 1 any other handled failure.

Run ``python -m repro <subcommand> --help`` for the flags of each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

from . import obs
from .resilience import (
    ChunkFailureError,
    RetryPolicy,
    degraded_events,
    last_degraded_site,
)
from .core.estimator import SelectivityEstimator
from .core.explain import explain as explain_query
from .core.explain import explanation_from_spans
from .core.fixed import FixedDecompositionEstimator
from .core.lattice import LatticeSummary
from .core.markov import MarkovPathEstimator
from .core.pruning import pruning_report
from .core.recursive import RecursiveDecompositionEstimator
from .datasets import DATASET_GENERATORS, generate_dataset
from .mining.freqt import pattern_counts_by_level
from .store.errors import MergeError
from .trees.labeled_tree import LabeledTree
from .trees.matching import count_matches
from .trees.serialize import tree_from_xml_file, tree_to_xml_file
from .trees.twig import TwigParseError, TwigQuery

__all__ = ["main", "build_parser"]


class CliUsageError(Exception):
    """Bad input the user can fix (exit status 2): unparseable query,
    missing or corrupt summary file, out-of-range flag."""


#: Exit status for runs that completed with exact results but had to
#: fall back to the serial path after exhausting their retry budget.
EXIT_DEGRADED = 3


def _retry_policy(args: argparse.Namespace) -> RetryPolicy | None:
    """Build the parallel failure budget from ``--retry`` / ``--timeout``.

    ``None`` (neither flag given) keeps the library default: no
    retries, failures raise.  Either flag alone implies the other's
    default (2 retries / no timeout), and the CLI always degrades to
    serial rather than failing — surfaced via exit status 3.
    """
    retries, timeout = args.retry, args.timeout
    if retries is None and timeout is None:
        return None
    if retries is not None and retries < 0:
        raise CliUsageError(f"--retry must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise CliUsageError(f"--timeout must be > 0 seconds, got {timeout}")
    return RetryPolicy(
        max_retries=retries if retries is not None else 2,
        attempt_timeout=timeout,
        fallback=True,
    )


def _check_workers(args: argparse.Namespace) -> None:
    """Reject a negative ``--workers`` as a usage error."""
    if args.workers is not None and args.workers < 0:
        raise CliUsageError(f"--workers must be >= 0, got {args.workers}")


def _degradation_status(events_before: int) -> int:
    """0, or :data:`EXIT_DEGRADED` when serial fallbacks happened."""
    fallen_back = degraded_events() - events_before
    if not fallen_back:
        return 0
    print(
        f"warning: {fallen_back} chunk(s) at {last_degraded_site()!r} fell "
        "back to the serial path after exhausting the retry budget; "
        "results are exact but the run was degraded",
        file=sys.stderr,
    )
    return EXIT_DEGRADED


def _parse_query(text: str) -> TwigQuery:
    try:
        return TwigQuery.parse(text)
    except TwigParseError as exc:
        raise CliUsageError(f"cannot parse query {text!r}: {exc}") from exc


def _load_summary(path: str) -> LatticeSummary:
    try:
        return LatticeSummary.load(path)
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"cannot load summary {path!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TreeLattice: XML twig selectivity estimation (EDBT 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="mine an XML file into a lattice summary")
    p.add_argument("xml", help="input XML document")
    p.add_argument("-k", "--level", type=int, default=4, help="lattice level (default 4)")
    p.add_argument("-o", "--output", required=True, help="summary output path")
    p.add_argument(
        "--prune",
        type=float,
        default=None,
        metavar="DELTA",
        help="prune DELTA-derivable patterns (0 = lossless)",
    )
    p.add_argument(
        "--attributes", action="store_true", help="model attributes as child nodes"
    )
    p.add_argument(
        "--store",
        choices=("dict", "array"),
        default="dict",
        help="summary count backend (array = interned ids, compact binary file)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help=(
            "build through the streaming path: insert each top-level "
            "record as a monoid delta, then compact"
        ),
    )
    _add_observability_flags(p)
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser(
        "merge",
        help="merge summaries of the same level (counts add per pattern)",
    )
    p.add_argument(
        "summaries", nargs="+", help="summary files written by 'summarize'"
    )
    p.add_argument("-o", "--output", required=True, help="merged summary output path")
    _add_observability_flags(p)
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("estimate", help="estimate a twig query from a summary")
    p.add_argument("summary", help="summary file written by 'summarize'")
    p.add_argument(
        "query",
        nargs="?",
        default=None,
        help="twig query (XPath subset or pattern codec)",
    )
    p.add_argument(
        "--batch",
        metavar="FILE",
        default=None,
        help="estimate every query in FILE (one per line, # comments)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --batch (0 = one per core; default serial)",
    )
    p.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="N",
        help="retry each failed parallel chunk up to N times, then finish "
        "it serially (exact results, exit status 3)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon a parallel chunk attempt after SECONDS and retry it "
        "(hung-worker protection; implies --retry 2 unless given)",
    )
    p.add_argument(
        "--estimator",
        choices=("recursive", "voting", "fixed", "markov"),
        default="voting",
        help="estimation scheme (default: recursive + voting)",
    )
    p.add_argument(
        "--backend",
        choices=("auto", "plan", "numpy"),
        default=None,
        metavar="NAME",
        help="warm-replay backend for --batch: plan = per-query plan "
        "replay (default), numpy = vectorised flat-array kernels, "
        "auto = numpy when importable, else plan; all are bit-identical",
    )
    p.add_argument(
        "--store",
        choices=("dict", "array"),
        default=None,
        help="convert the loaded summary to this backend before estimating",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the decomposition derivation recorded during this "
        "very estimate (recursive/voting, single query only)",
    )
    p.add_argument(
        "--explain-json",
        action="store_true",
        help="like --explain but emit the derivation as JSON",
    )
    _add_observability_flags(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser(
        "stats", help="summary structure plus live estimation metrics"
    )
    p.add_argument("summary", help="summary file written by 'summarize'")
    p.add_argument(
        "queries", nargs="*", help="twig queries to estimate while measuring"
    )
    p.add_argument(
        "--estimator",
        choices=("recursive", "voting", "fixed", "markov"),
        default="voting",
    )
    p.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
        help="metrics output format (default: table)",
    )
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("explain", help="show the decomposition trace of an estimate")
    p.add_argument("summary", help="summary file written by 'summarize'")
    p.add_argument("query", help="twig query")
    p.add_argument("--voting", action="store_true", help="trace the voting estimator")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser(
        "trace",
        help="record estimation spans and write a chrome://tracing file",
    )
    p.add_argument("summary", help="summary file written by 'summarize'")
    p.add_argument(
        "query",
        nargs="?",
        default=None,
        help="twig query (XPath subset or pattern codec)",
    )
    p.add_argument(
        "--batch",
        metavar="FILE",
        default=None,
        help="trace every query in FILE (one per line, # comments)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --batch (0 = one per core; default serial)",
    )
    p.add_argument(
        "--estimator",
        choices=("recursive", "voting", "fixed", "markov"),
        default="voting",
    )
    p.add_argument(
        "--store",
        choices=("dict", "array"),
        default=None,
        help="convert the loaded summary to this backend before estimating",
    )
    p.add_argument(
        "-o",
        "--output",
        required=True,
        help="Chrome-trace JSON output path (load at chrome://tracing)",
    )
    p.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head-based span sampling rate in [0, 1] (default 1.0)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="sampling phase seed (default 0)"
    )
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("exact", help="exact twig match count from the document")
    p.add_argument("xml", help="input XML document")
    p.add_argument("query", help="twig query")
    p.add_argument("--attributes", action="store_true")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("mine", help="report pattern counts per level")
    p.add_argument("xml", help="input XML document")
    p.add_argument("-k", "--level", type=int, default=4)
    p.add_argument("--attributes", action="store_true")
    p.set_defaults(handler=_cmd_mine)

    p = sub.add_parser(
        "catalog", help="manage a directory of summaries for many documents"
    )
    p.add_argument("directory", help="catalog directory (created if missing)")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)

    c = catalog_sub.add_parser("register", help="mine a document into the catalog")
    c.add_argument("name", help="catalog entry name")
    c.add_argument("xml", help="input XML document")
    c.add_argument("-k", "--level", type=int, default=4)
    c.add_argument(
        "--budget", type=int, default=None, help="byte budget (prunes to fit)"
    )
    c.add_argument("--attributes", action="store_true")
    c.set_defaults(handler=_cmd_catalog_register)

    c = catalog_sub.add_parser("list", help="show catalog entries")
    c.set_defaults(handler=_cmd_catalog_list)

    c = catalog_sub.add_parser("estimate", help="estimate against an entry")
    c.add_argument("name")
    c.add_argument("query")
    c.add_argument(
        "--estimator",
        choices=("recursive", "voting", "fixed", "markov"),
        default="voting",
    )
    c.set_defaults(handler=_cmd_catalog_estimate)

    c = catalog_sub.add_parser("forget", help="drop an entry")
    c.add_argument("name")
    c.set_defaults(handler=_cmd_catalog_forget)

    p = sub.add_parser("dataset", help="generate a synthetic stand-in corpus")
    p.add_argument("name", choices=sorted(DATASET_GENERATORS))
    p.add_argument("-n", "--scale", type=int, default=None, help="record count / scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="XML output path")
    p.set_defaults(handler=_cmd_dataset)

    return parser


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="capture the run's metrics registry as JSON",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="capture the structured estimation trace as JSONL",
    )


def _run_observed(args: argparse.Namespace, body: Callable[[], int]) -> int:
    """Run ``body`` under a capture window when either flag was given."""
    metrics_path = getattr(args, "metrics_json", None)
    trace_path = getattr(args, "trace", None)
    if not metrics_path and not trace_path:
        return body()
    with obs.observed(trace=bool(trace_path)) as (registry, tracer):
        code = body()
    if metrics_path:
        obs.write_metrics_json(registry, metrics_path)
        print(f"metrics written to {metrics_path}")
    if trace_path and tracer is not None:
        tracer.write(trace_path)
        print(f"trace written to {trace_path} ({len(tracer)} events)")
    return code


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------


def _cmd_summarize(args: argparse.Namespace) -> int:
    return _run_observed(args, lambda: _do_summarize(args))


def _do_summarize(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    document = tree_from_xml_file(args.xml, include_attributes=args.attributes)
    parse_seconds = time.perf_counter() - start
    print(f"parsed {document.size} nodes in {parse_seconds:.2f}s")

    if args.stream:
        summary = _summarize_streaming(document, args)
    else:
        summary = LatticeSummary.build(document, args.level, store=args.store)
    print(
        f"mined {summary.num_patterns} patterns "
        f"({summary.byte_size()} bytes, {summary.backend} store) "
        f"in {summary.construction_seconds:.2f}s"
    )
    if args.prune is not None:
        summary, report = pruning_report(summary, args.prune, voting=True)
        print(
            f"pruned {report.patterns_removed} derivable patterns "
            f"(saving {report.space_saving * 100:.0f}%: "
            f"{report.bytes_before} -> {report.bytes_after} bytes)"
        )
    summary.save(args.output)
    print(f"summary written to {args.output}")
    return 0


def _summarize_streaming(
    document: LabeledTree, args: argparse.Namespace
) -> LatticeSummary:
    """Build via the streaming path: one insert per top-level record.

    Exercises the same monoid delta machinery as live maintenance; the
    final compacted counts equal the one-shot build's exactly (the
    text container sorts keys, so the dict-backend file is identical).
    """
    from .core.streaming import StreamingSummary

    start = time.perf_counter()
    seed = LabeledTree(document.label(document.root))
    streaming = StreamingSummary(seed, args.level, store=args.store)
    records = list(document.child_ids(document.root))
    for child in records:
        streaming.insert(document.subtree_at(child))
    summary = streaming.compact()
    summary.construction_seconds = time.perf_counter() - start
    print(f"streamed {len(records)} top-level records")
    return summary


def _cmd_merge(args: argparse.Namespace) -> int:
    return _run_observed(args, lambda: _do_merge(args))


def _do_merge(args: argparse.Namespace) -> int:
    if len(args.summaries) < 2:
        raise CliUsageError("merge needs at least two summary files")
    merged = _load_summary(args.summaries[0])
    for path in args.summaries[1:]:
        try:
            merged = merged.merge(_load_summary(path))
        except MergeError as exc:
            raise CliUsageError(f"cannot merge {path!r}: {exc}") from exc
    merged.save(args.output)
    print(
        f"merged {len(args.summaries)} summaries into {args.output} "
        f"({merged.num_patterns} patterns, level {merged.level}, "
        f"{merged.backend} store)"
    )
    return 0


def _estimator_for(name: str, summary: LatticeSummary) -> SelectivityEstimator:
    if name == "recursive":
        return RecursiveDecompositionEstimator(summary)
    if name == "voting":
        return RecursiveDecompositionEstimator(summary, voting=True)
    if name == "fixed":
        return FixedDecompositionEstimator(summary)
    return MarkovPathEstimator(summary)


def _cmd_estimate(args: argparse.Namespace) -> int:
    return _run_observed(args, lambda: _do_estimate(args))


def _do_estimate(args: argparse.Namespace) -> int:
    if args.batch is not None and args.query is not None:
        raise CliUsageError("give either a query or --batch FILE, not both")
    _check_workers(args)
    explaining = args.explain or args.explain_json
    if args.backend is not None and args.batch is None:
        raise CliUsageError("--backend only applies to --batch estimation")
    if explaining:
        if args.batch is not None:
            raise CliUsageError("--explain works on a single query, not --batch")
        if args.estimator not in ("recursive", "voting"):
            raise CliUsageError(
                "--explain requires the recursive or voting estimator "
                f"(got {args.estimator!r})"
            )
    summary = _load_summary(args.summary)
    if args.store is not None:
        summary = summary.to_store(args.store)
    estimator = _estimator_for(args.estimator, summary)
    if args.batch is not None:
        return _do_estimate_batch(args, estimator)
    if args.query is None:
        raise CliUsageError("missing query (or use --batch FILE)")
    query = _parse_query(args.query)
    if explaining:
        return _do_estimate_explained(args, estimator, query)
    start = time.perf_counter()
    estimate = estimator.estimate(query)
    elapsed_ms = (time.perf_counter() - start) * 1000
    print(f"query     : {args.query}")
    print(f"estimator : {estimator.name}")
    print(f"estimate  : {estimate:.2f}  (~{max(0, round(estimate))} matches)")
    print(f"time      : {elapsed_ms:.2f}ms")
    return 0


#: Span capacity for --explain captures: ample for deep voting runs.
_EXPLAIN_CAPACITY = 1 << 20


def _do_estimate_explained(
    args: argparse.Namespace,
    estimator: SelectivityEstimator,
    query: TwigQuery,
) -> int:
    """Estimate once under a full-rate flight recorder; print what ran.

    The derivation comes from the spans of this very execution, so the
    rendered trace is the answer's provenance, not a re-derivation.
    """
    with obs.flight_recorder(capacity=_EXPLAIN_CAPACITY) as recording:
        estimate = estimator.estimate(query)
    explanation = explanation_from_spans(recording.spans)
    if args.explain_json:
        payload = {
            "query": args.query,
            "estimator": estimator.name,
            "estimate": estimate,
            "derivation": explanation.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"query     : {args.query}")
    print(f"estimator : {estimator.name}")
    print(f"estimate  : {estimate:.2f}  (~{max(0, round(estimate))} matches)")
    print()
    print(explanation.render())
    print()
    print(
        f"estimate: {explanation.estimate:.4f} from "
        f"{len(explanation.lookups())} summary lookups"
    )
    return 0


def _read_batch_file(path: str) -> list[str]:
    """Query texts from a batch file: one per line, blank/# lines skipped."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CliUsageError(f"cannot read batch file {path!r}: {exc}") from exc
    texts = [
        line.strip()
        for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not texts:
        raise CliUsageError(f"batch file {path!r} contains no queries")
    return texts


def _do_estimate_batch(
    args: argparse.Namespace, estimator: SelectivityEstimator
) -> int:
    texts = _read_batch_file(args.batch)
    queries = [_parse_query(text) for text in texts]
    start = time.perf_counter()
    events_before = degraded_events()
    estimates = estimator.estimate_batch(
        queries,
        workers=args.workers,
        backend=args.backend,
        retry=_retry_policy(args),
    )
    elapsed_ms = (time.perf_counter() - start) * 1000
    print(f"estimator : {estimator.name}")
    if args.backend is not None:
        from .kernels import resolve_backend

        print(f"backend   : {resolve_backend(args.backend)}")
    print(f"queries   : {len(queries)}  (from {args.batch})")
    for text, estimate in zip(texts, estimates):
        print(f"{text} ~= {estimate:.2f}")
    print(
        f"time      : {elapsed_ms:.2f}ms total, "
        f"{elapsed_ms / len(queries):.3f}ms/query"
    )
    return _degradation_status(events_before)


def _cmd_explain(args: argparse.Namespace) -> int:
    summary = _load_summary(args.summary)
    trace = explain_query(summary, _parse_query(args.query), voting=args.voting)
    print(trace.render())
    print()
    print(f"estimate: {trace.estimate:.4f} from {len(trace.lookups())} summary lookups")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.batch is not None and args.query is not None:
        raise CliUsageError("give either a query or --batch FILE, not both")
    if not 0.0 <= args.sample_rate <= 1.0:
        raise CliUsageError(
            f"--sample-rate must be within [0, 1], got {args.sample_rate}"
        )
    _check_workers(args)
    summary = _load_summary(args.summary)
    if args.store is not None:
        summary = summary.to_store(args.store)
    estimator = _estimator_for(args.estimator, summary)
    if args.batch is not None:
        texts = _read_batch_file(args.batch)
        queries = [_parse_query(text) for text in texts]
    elif args.query is not None:
        queries = [_parse_query(args.query)]
    else:
        raise CliUsageError("missing query (or use --batch FILE)")
    with obs.flight_recorder(args.sample_rate, seed=args.seed) as recording:
        if args.batch is not None:
            estimator.estimate_batch(queries, workers=args.workers)
        else:
            estimator.estimate(queries[0])
    tracer = recording.spans
    tracer.write_chrome_trace(args.output)
    print(f"estimator : {estimator.name}")
    print(f"queries   : {len(queries)}")
    print(
        f"spans     : {len(tracer)} kept  "
        f"({tracer.roots_sampled}/{tracer.roots_started} roots sampled, "
        f"{tracer.dropped} dropped)"
    )
    print(f"trace written to {args.output}  (open in chrome://tracing)")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    document = tree_from_xml_file(args.xml, include_attributes=args.attributes)
    query = _parse_query(args.query)
    start = time.perf_counter()
    count = count_matches(query.tree, document)
    elapsed_ms = (time.perf_counter() - start) * 1000
    print(f"query : {args.query}")
    print(f"count : {count}")
    print(f"time  : {elapsed_ms:.2f}ms")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    document = tree_from_xml_file(args.xml, include_attributes=args.attributes)
    counts = pattern_counts_by_level(document, args.level)
    print("level  patterns")
    for level, count in counts.items():
        print(f"{level:>5}  {count}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    summary = _load_summary(args.summary)
    queries = [_parse_query(text) for text in args.queries]

    print(f"summary   : {args.summary}")
    print(f"level     : {summary.level}")
    print(f"backend   : {summary.backend}")
    print(f"patterns  : {summary.num_patterns}  ({summary.byte_size()} bytes)")
    complete = ",".join(map(str, sorted(summary.complete_sizes))) or "-"
    print(f"complete  : {complete}")
    print("level  patterns")
    for size, count in summary.level_sizes().items():
        print(f"{size:>5}  {count}")
    if not queries:
        return 0

    estimator = _estimator_for(args.estimator, summary)
    with obs.observed() as (registry, _):
        print()
        for query, text in zip(queries, args.queries):
            print(f"{text} ~= {estimator.estimate(query):.2f}")
    print()
    if args.format == "json":
        print(json.dumps(obs.registry_to_dict(registry), indent=2, sort_keys=True))
    elif args.format == "prometheus":
        print(obs.to_prometheus_text(registry), end="")
    else:
        stats = obs.summarize_estimation(registry)
        print("estimation metrics")
        print(f"  lattice lookups : {stats['lattice_lookups']:.0f}")
        print(
            f"  hit rate        : {stats['lattice_hit_rate']:.1%}"
            f"  (hits {stats['lattice_hits']:.0f}, "
            f"certified zeros {stats['lattice_complete_zeros']:.0f}, "
            f"pruned misses {stats['lattice_pruned_misses']:.0f})"
        )
        print(f"  memo hit rate   : {stats['memo_hit_rate']:.1%}")
        print(f"  decompositions  : {stats['decompose_steps']:.0f}")
        print(
            f"  recursion depth : mean {stats['mean_recursion_depth']:.2f}, "
            f"max {stats['max_recursion_depth']:.0f}"
        )
        print(
            f"  estimate time   : {stats['estimate_seconds'] * 1000:.3f}ms over "
            f"{stats['estimate_calls']} queries"
        )
        print(
            f"  latency p50/p90/p99 : "
            f"{stats['estimate_latency_p50'] * 1000:.3f} / "
            f"{stats['estimate_latency_p90'] * 1000:.3f} / "
            f"{stats['estimate_latency_p99'] * 1000:.3f} ms"
        )
    return 0


def _cmd_catalog_register(args: argparse.Namespace) -> int:
    from .core.catalog import SummaryCatalog

    catalog = SummaryCatalog(args.directory)
    document = tree_from_xml_file(args.xml, include_attributes=args.attributes)
    summary = catalog.register(
        args.name, document, level=args.level, budget_bytes=args.budget
    )
    pruned = "" if summary.is_complete_at(summary.level) else " (pruned to budget)"
    print(
        f"registered {args.name!r}: {summary.num_patterns} patterns, "
        f"{summary.byte_size()} bytes{pruned}"
    )
    return 0


def _cmd_catalog_list(args: argparse.Namespace) -> int:
    from .core.catalog import SummaryCatalog

    catalog = SummaryCatalog(args.directory)
    if not len(catalog):
        print("(empty catalog)")
        return 0
    print(f"{'name':24} {'level':>5} {'patterns':>9} {'bytes':>10}  pruned")
    for row in catalog.describe():
        print(
            f"{row['name']:24} {row['level']:>5} {row['patterns']:>9} "
            f"{row['bytes']:>10}  {'yes' if row['pruned'] else 'no'}"
        )
    return 0


def _cmd_catalog_estimate(args: argparse.Namespace) -> int:
    from .core.catalog import SummaryCatalog

    catalog = SummaryCatalog(args.directory)
    estimate = catalog.estimate(args.name, args.query, estimator=args.estimator)
    print(f"{args.name}: {args.query} ~= {estimate:.2f}")
    return 0


def _cmd_catalog_forget(args: argparse.Namespace) -> int:
    from .core.catalog import SummaryCatalog

    catalog = SummaryCatalog(args.directory)
    catalog.forget(args.name)
    print(f"forgot {args.name!r}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    document = generate_dataset(args.name, args.scale, seed=args.seed)
    written = tree_to_xml_file(document, args.output)
    print(
        f"{args.name}: {document.size} elements, {written} bytes -> {args.output}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, ChunkFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
