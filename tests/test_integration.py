"""Integration tests: full pipelines across modules.

Each test walks an end-to-end scenario a downstream user would run:
XML in → lattice → estimate; dataset → workloads → evaluation; pruning
under a memory budget; summary persistence across processes.
"""

import pytest

from repro import (
    DocumentIndex,
    FixedDecompositionEstimator,
    LatticeSummary,
    MarkovPathEstimator,
    RecursiveDecompositionEstimator,
    TreeSketch,
    TwigQuery,
    count_matches,
    evaluate_estimator,
    negative_workload,
    positive_workloads,
    prune_derivable,
    tree_from_xml,
    tree_to_xml,
)


class TestXmlToEstimatePipeline:
    def test_parse_build_estimate(self):
        xml = (
            "<library>"
            + "".join(
                "<shelf><book><title/><author/></book><book><title/></book></shelf>"
                for _ in range(5)
            )
            + "</library>"
        )
        document = tree_from_xml(xml)
        lattice = LatticeSummary.build(document, 3)
        estimator = RecursiveDecompositionEstimator(lattice, voting=True)

        query = TwigQuery.parse("/shelf/book[title][author]")
        true = count_matches(query.tree, document)
        assert true == 5
        assert estimator.estimate(query) == pytest.approx(true, rel=0.5)

        # Serialise back out and re-parse: estimates unchanged.
        again = tree_from_xml(tree_to_xml(document))
        lattice2 = LatticeSummary.build(again, 3)
        estimator2 = RecursiveDecompositionEstimator(lattice2, voting=True)
        assert estimator2.estimate(query) == estimator.estimate(query)


class TestDatasetEvaluationPipeline:
    def test_positive_and_negative_evaluation(self, small_psd):
        index = DocumentIndex(small_psd)
        lattice = LatticeSummary.build(index, 4)
        workloads = positive_workloads(index, [5, 6], per_level=10, seed=11)
        estimator = RecursiveDecompositionEstimator(lattice, voting=True)

        for size, workload in workloads.items():
            evaluation = evaluate_estimator(estimator, workload)
            assert evaluation.average_error < 100.0, size

        negatives = negative_workload(index, workloads[5], seed=12)
        evaluation = evaluate_estimator(estimator, negatives)
        assert evaluation.exact_zero_rate >= 0.95

    def test_all_estimators_finish_on_imdb(self, small_imdb, small_imdb_lattice):
        index = DocumentIndex(small_imdb)
        workload = positive_workloads(index, [6], per_level=8, seed=13)[6]
        sketch = TreeSketch.build(small_imdb, 4096)
        estimators = [
            RecursiveDecompositionEstimator(small_imdb_lattice),
            RecursiveDecompositionEstimator(small_imdb_lattice, voting=True),
            FixedDecompositionEstimator(small_imdb_lattice),
            sketch,
        ]
        for estimator in estimators:
            evaluation = evaluate_estimator(estimator, workload)
            assert len(evaluation.errors) == len(workload)
            assert all(e >= 0 for e in evaluation.errors)


class TestPruningPipeline:
    def test_prune_then_estimate_large_queries(self, small_nasa):
        index = DocumentIndex(small_nasa)
        lattice = LatticeSummary.build(index, 4)
        # Derivability is estimator-specific: prune with the same voting
        # flag the consuming estimator uses, or Lemma 5 does not apply.
        pruned = prune_derivable(lattice, 0.0, voting=True)
        assert pruned.byte_size() < lattice.byte_size()

        workload = positive_workloads(index, [6], per_level=10, seed=21)[6]
        full = evaluate_estimator(
            RecursiveDecompositionEstimator(lattice, voting=True), workload
        )
        compact = evaluate_estimator(
            RecursiveDecompositionEstimator(pruned, voting=True), workload
        )
        # Lossless pruning: identical estimates on occurring queries.
        for a, b in zip(full.estimates, compact.estimates):
            assert a == pytest.approx(b, rel=1e-9)


class TestPersistencePipeline:
    def test_save_load_estimate(self, tmp_path, small_psd):
        lattice = LatticeSummary.build(small_psd, 3)
        path = tmp_path / "psd.lattice"
        lattice.save(path)
        loaded = LatticeSummary.load(path)

        query = TwigQuery.parse("ProteinEntry(header,organism(source))")
        original = RecursiveDecompositionEstimator(lattice).estimate(query)
        reloaded = RecursiveDecompositionEstimator(loaded).estimate(query)
        assert original == reloaded

    def test_markov_on_loaded_summary(self, tmp_path, small_psd):
        lattice = LatticeSummary.build(small_psd, 3)
        path = tmp_path / "psd.lattice"
        lattice.save(path)
        loaded = LatticeSummary.load(path)
        query = TwigQuery.parse("/ProteinDatabase/ProteinEntry/reference/refinfo")
        assert MarkovPathEstimator(loaded).estimate(query) == (
            MarkovPathEstimator(lattice).estimate(query)
        )


class TestValuePipelines:
    def test_equality_and_range_predicates_end_to_end(self):
        """Values flow: histogram fit -> value-aware parse -> lattice ->
        range estimate vs exact counts."""
        from repro import RangeHistogram
        from repro.trees.histograms import tree_from_xml_with_ranges

        prices = [50 * i for i in range(1, 41)]  # 50..2000
        xml = "<shop>" + "".join(
            f"<laptop><brand/><price>{p}</price></laptop>" for p in prices
        ) + "</shop>"
        histogram = RangeHistogram.fit(
            {"price": [float(p) for p in prices]}, buckets=8
        )
        document = tree_from_xml_with_ranges(xml, histogram)
        lattice = LatticeSummary.build(document, 4)
        estimator = RecursiveDecompositionEstimator(lattice, voting=True)

        pieces = histogram.range_twigs("/laptop[brand][price]", "price", 500, 1500)
        estimate = sum(w * estimator.estimate(q) for w, q in pieces)
        true = sum(1 for p in prices if 500 <= p <= 1500)
        assert estimate == pytest.approx(true, rel=0.35)

    def test_incremental_feeding_a_catalog(self, tmp_path):
        """Streaming ingest: records are inserted one by one, exact
        snapshots are published to a catalog, planners estimate from
        the snapshot."""
        from repro import LabeledTree, StreamingSummary, SummaryCatalog
        from repro.core.catalog import SummaryCatalog as _SC

        document = LabeledTree.from_nested(("db", [("rec", ["a", "b"])]))
        maintained = StreamingSummary(document, 3, max_pending=0)
        catalog = SummaryCatalog(tmp_path / "cat")

        for generation in range(3):
            maintained.insert(LabeledTree.from_nested(("rec", ["a", "b"])))
            catalog.publish("db", maintained.summary())

        reopened = _SC(tmp_path / "cat")
        estimate = reopened.estimate("db", "rec(a,b)")
        true = count_matches(
            TwigQuery.parse("rec(a,b)").tree, maintained.document
        )
        assert estimate == float(true) == 4.0


class TestApproximateCountAnswering:
    def test_estimate_count_for_aggregates(self, figure1_doc, figure1_lattice):
        """The interactive use case: COUNT approximations (paper §1)."""
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        query = TwigQuery.parse("laptop(brand,price)")
        assert estimator.estimate_count(query) == count_matches(
            query.tree, figure1_doc
        )
