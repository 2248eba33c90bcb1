"""Tests for the ``repro.parallel`` subsystem.

The subsystem's contract is *bit-identity*: ``estimate_batch`` (serial
or fanned out across processes) returns exactly the per-query
estimates, and the fan-out loses no worker telemetry.  These tests pin
that contract on a small nasa workload and through the CLI.
"""

from __future__ import annotations

import pytest

from repro import (
    DocumentIndex,
    FixedDecompositionEstimator,
    LatticeSummary,
    RecursiveDecompositionEstimator,
)
from repro import obs
from repro.cli import main
from repro.parallel import (
    available_workers,
    chunked,
    estimate_trees_parallel,
    resolve_workers,
)
from repro.trees.serialize import tree_to_xml_file

# ----------------------------------------------------------------------
# Pool helpers
# ----------------------------------------------------------------------


class TestPoolHelpers:
    def test_resolve_default_is_serial(self) -> None:
        assert resolve_workers(None) == 1

    def test_resolve_zero_means_all_cores(self) -> None:
        assert resolve_workers(0) == available_workers()

    def test_resolve_explicit(self) -> None:
        assert resolve_workers(3) == 3

    def test_resolve_negative_rejected(self) -> None:
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_chunked_preserves_order_and_content(self) -> None:
        items = list(range(13))
        for chunks in (1, 2, 3, 5, 13, 20):
            parts = chunked(items, chunks)
            assert [x for part in parts for x in part] == items
            assert all(parts), "chunked must not emit empty chunks"
            assert len(parts) == min(chunks, len(items))

    def test_chunked_is_near_even(self) -> None:
        sizes = [len(part) for part in chunked(list(range(10)), 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_chunked_empty(self) -> None:
        assert chunked([], 4) == []


# ----------------------------------------------------------------------
# Batched estimation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def nasa_queries(small_nasa_module):
    index, summary = small_nasa_module
    from repro.workload.generator import positive_workloads

    workloads = positive_workloads(index, [4, 5], 8, seed=3)
    return summary, [q for size in (4, 5) for q in workloads[size].queries]


@pytest.fixture(scope="module")
def small_nasa_module():
    from repro.datasets import generate_dataset

    document = generate_dataset("nasa", 12, seed=0)
    index = DocumentIndex(document)
    return index, LatticeSummary.build(index, 4)


class TestEstimateBatch:
    @pytest.mark.parametrize("voting", [False, True])
    def test_recursive_matches_per_query(self, nasa_queries, voting: bool) -> None:
        summary, queries = nasa_queries
        estimator = RecursiveDecompositionEstimator(summary, voting=voting)
        per_query = [estimator.estimate(q) for q in queries]
        assert estimator.estimate_batch(queries) == per_query

    def test_fixed_matches_per_query(self, nasa_queries) -> None:
        summary, queries = nasa_queries
        estimator = FixedDecompositionEstimator(summary)
        per_query = [estimator.estimate(q) for q in queries]
        assert estimator.estimate_batch(queries) == per_query

    def test_shared_cache_estimator_is_stable(self, nasa_queries) -> None:
        # A persistent cross-batch memo must not change any estimate:
        # cache hits return exactly what a cold evaluation computes.
        summary, queries = nasa_queries
        cold = RecursiveDecompositionEstimator(summary, voting=True)
        warm = RecursiveDecompositionEstimator(
            summary, voting=True, shared_cache=True
        )
        expected = [cold.estimate(q) for q in queries]
        assert warm.estimate_batch(queries) == expected
        assert warm.estimate_batch(queries) == expected  # fully warm memo
        assert [warm.estimate(q) for q in queries] == expected
        warm.clear_cache()
        assert warm.estimate_batch(queries) == expected

    def test_parallel_fanout_matches(self, nasa_queries) -> None:
        summary, queries = nasa_queries
        estimator = RecursiveDecompositionEstimator(summary, voting=True)
        per_query = [estimator.estimate(q) for q in queries]
        assert estimator.estimate_batch(queries, workers=2) == per_query
        trees = [q.tree for q in queries]
        assert (
            estimate_trees_parallel(estimator, trees, workers=2, chunk_size=3)
            == per_query
        )

    def test_single_query_batch(self, nasa_queries) -> None:
        summary, queries = nasa_queries
        estimator = FixedDecompositionEstimator(summary)
        assert estimator.estimate_batch(queries[:1]) == [
            estimator.estimate(queries[0])
        ]

    def test_batch_metrics_emitted(self, nasa_queries) -> None:
        summary, queries = nasa_queries
        estimator = RecursiveDecompositionEstimator(summary)
        with obs.observed() as (registry, _):
            estimator.estimate_batch(queries)
        counter = registry.get("estimate_batch_queries_total")
        assert counter is not None
        assert sum(value for _, value in counter.samples()) == len(queries)


# ----------------------------------------------------------------------
# Worker telemetry merge: parallel runs lose no metrics or spans
# ----------------------------------------------------------------------


class TestWorkerTelemetryMerge:
    @staticmethod
    def _counter_totals(registry) -> dict[str, dict[tuple, float]]:
        from repro.obs.registry import Counter

        return {
            metric.name: {
                tuple(sorted(labels.items())): value
                for labels, value in metric.samples()
            }
            for metric in registry
            if isinstance(metric, Counter)
        }

    def test_single_chunk_parallel_counters_equal_serial(self, nasa_queries) -> None:
        # One chunk -> one worker runs the whole batch with the same
        # shared memo the serial path uses, so every counter (store
        # lookups, lattice outcomes, memo hits, plan requests) must come
        # back bit-equal through the telemetry merge.
        summary, queries = nasa_queries
        serial_estimator = RecursiveDecompositionEstimator(summary, voting=True)
        with obs.observed() as (serial_registry, _):
            serial_values = serial_estimator.estimate_batch(queries)
        parallel_estimator = RecursiveDecompositionEstimator(summary, voting=True)
        with obs.observed() as (parallel_registry, _):
            parallel_values = parallel_estimator.estimate_batch(
                queries, workers=2, chunk_size=len(queries)
            )
        assert parallel_values == serial_values
        serial_counts = self._counter_totals(serial_registry)
        assert serial_counts["store_lookups_total"]
        assert serial_counts["estimate_batch_queries_total"]
        assert self._counter_totals(parallel_registry) == serial_counts

    def test_multi_chunk_keeps_per_query_telemetry(self, nasa_queries) -> None:
        summary, queries = nasa_queries
        estimator = RecursiveDecompositionEstimator(summary, voting=True)
        with obs.flight_recorder() as recording:
            values = estimator.estimate_batch(queries, workers=2, chunk_size=3)
        roots = [
            span
            for span in recording.spans
            if span.name == "estimate" and span.parent_id is None
        ]
        assert len(roots) == len(queries)
        assert sorted(span.attrs["value"] for span in roots) == sorted(values)
        # Merged worker spans land on distinct track lanes and their
        # parent links stay intact across the id remapping.
        by_id = {span.span_id: span for span in recording.spans}
        assert len(by_id) == len(recording.spans.spans)
        for span in recording.spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].track == span.track
        latency = recording.registry.quantile("estimate_latency_seconds")
        assert latency.count == len(queries)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def xml_file(self, tmp_path, figure1_doc):
        path = tmp_path / "doc.xml"
        tree_to_xml_file(figure1_doc, path)
        return path

    @pytest.fixture()
    def summary_file(self, tmp_path, xml_file):
        path = tmp_path / "doc.summary"
        assert main(["summarize", str(xml_file), "-k", "4", "-o", str(path)]) == 0
        return path

    def test_estimate_batch_file(self, summary_file, tmp_path, capsys) -> None:
        batch = tmp_path / "queries.txt"
        batch.write_text(
            "# workload\nlaptop(brand)\n\nlaptop(brand,price)\n", encoding="utf-8"
        )
        code = main(["estimate", str(summary_file), "--batch", str(batch)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "queries   : 2" in printed
        assert "laptop(brand) ~= 2.00" in printed
        assert "laptop(brand,price) ~= 2.00" in printed

    def test_estimate_batch_with_workers(self, summary_file, tmp_path, capsys) -> None:
        batch = tmp_path / "queries.txt"
        batch.write_text("laptop(brand)\nlaptop(price)\n", encoding="utf-8")
        code = main(
            ["estimate", str(summary_file), "--batch", str(batch), "--workers", "2"]
        )
        assert code == 0
        assert "~=" in capsys.readouterr().out

    def test_estimate_query_and_batch_conflict(
        self, summary_file, tmp_path, capsys
    ) -> None:
        batch = tmp_path / "queries.txt"
        batch.write_text("laptop(brand)\n", encoding="utf-8")
        code = main(
            ["estimate", str(summary_file), "laptop(brand)", "--batch", str(batch)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_estimate_missing_query_and_batch(self, summary_file, capsys) -> None:
        assert main(["estimate", str(summary_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_estimate_empty_batch_file(self, summary_file, tmp_path, capsys) -> None:
        batch = tmp_path / "queries.txt"
        batch.write_text("# only comments\n", encoding="utf-8")
        assert main(["estimate", str(summary_file), "--batch", str(batch)]) == 2
        assert "no queries" in capsys.readouterr().err
