"""Unit tests for the recursive decomposition estimator."""

import pytest

from repro import (
    LabeledTree,
    LatticeSummary,
    RecursiveDecompositionEstimator,
    TwigQuery,
    count_matches,
)
from repro.kernels import HAVE_NUMPY
from repro.trees.canonical import canon, canon_to_tree, decode_canon


class TestWithinLattice:
    def test_exact_for_stored_patterns(self, figure1_doc, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        for pattern, count in figure1_lattice.patterns():
            assert estimator.estimate(pattern) == float(count)

    def test_zero_for_absent_small_patterns(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        assert estimator.estimate(LabeledTree("tablet")) == 0.0
        assert estimator.estimate("laptops(brand)") == 0.0


class TestTheorem1Formula:
    def test_single_step_formula(self):
        # Document engineered so the decomposition is a single step:
        # T = a(b,c), T1 = a(b), T2 = a(c), common = a.
        doc = LabeledTree.from_nested(
            ("r", [("a", ["b", "c"]), ("a", ["b"]), ("a", ["c"]), ("a", [])])
        )
        lattice = LatticeSummary.build(doc, 2)
        estimator = RecursiveDecompositionEstimator(lattice)
        estimate = estimator.estimate("a(b,c)")
        s_t1 = count_matches(LabeledTree.from_nested(("a", ["b"])), doc)  # 2
        s_t2 = count_matches(LabeledTree.from_nested(("a", ["c"])), doc)  # 2
        s_common = count_matches(LabeledTree("a"), doc)  # 4
        assert estimate == pytest.approx(s_t1 * s_t2 / s_common)  # 1.0
        assert count_matches(LabeledTree.from_nested(("a", ["b", "c"])), doc) == 1

    def test_exact_when_independence_holds(self):
        # b and c occur under *every* a independently: estimate is exact.
        doc = LabeledTree.from_nested(
            ("r", [("a", ["b", "c"]), ("a", ["b", "c"]), ("a", ["b", "c"])])
        )
        lattice = LatticeSummary.build(doc, 2)
        estimator = RecursiveDecompositionEstimator(lattice)
        true = count_matches(LabeledTree.from_nested(("a", ["b", "c"])), doc)
        assert estimator.estimate("a(b,c)") == pytest.approx(true)


class TestZeroHandling:
    def test_zero_common_part_gives_zero(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        # 'tablet' never occurs: any twig through it estimates to 0.
        query = TwigQuery.parse("computer(laptops(laptop(brand)),tablet)")
        assert estimator.estimate(query) == 0.0

    def test_negative_twig_with_existing_labels(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        # All labels exist but 'price' never hangs under 'laptops'.
        query = TwigQuery.parse("computer(laptops(price,laptop(brand,price)))")
        assert estimator.estimate(query) == 0.0


class TestVoting:
    def test_voting_averages_choices(self):
        # Build a document where different leaf pairs give different
        # one-step estimates, then check the voting estimate is their mean.
        doc = LabeledTree.from_nested(
            (
                "r",
                [
                    ("a", ["b", "c", "d"]),
                    ("a", ["b", "c"]),
                    ("a", ["b", "d"]),
                    ("a", ["c", "d"]),
                ],
            )
        )
        lattice = LatticeSummary.build(doc, 3)
        plain = RecursiveDecompositionEstimator(lattice)
        voting = RecursiveDecompositionEstimator(lattice, voting=True)
        query = TwigQuery.parse("a(b,c,d)")

        from repro.core.decompose import leaf_pair_decompositions

        expected = []
        for split in leaf_pair_decompositions(query.tree):
            denominator = lattice.get(split.common) or 0
            if denominator:
                expected.append(
                    lattice.get(split.t1) * lattice.get(split.t2) / denominator
                )
            else:
                expected.append(0.0)
        assert voting.estimate(query) == pytest.approx(
            sum(expected) / len(expected)
        )
        assert plain.estimate(query) == pytest.approx(expected[0])

    def test_voting_equal_on_paths(self, figure1_lattice):
        # Paths admit a single decomposition, so voting changes nothing.
        plain = RecursiveDecompositionEstimator(figure1_lattice)
        voting = RecursiveDecompositionEstimator(figure1_lattice, voting=True)
        query = TwigQuery.parse("/computer/laptops/laptop/brand")
        assert plain.estimate(query) == voting.estimate(query)

    def test_names(self, figure1_lattice):
        assert "voting" in RecursiveDecompositionEstimator(
            figure1_lattice, voting=True
        ).name
        assert "voting" not in RecursiveDecompositionEstimator(figure1_lattice).name


class TestInputCoercion:
    def test_estimate_accepts_strings(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        assert estimator.estimate("/laptop/brand") == 2.0
        assert estimator.estimate("laptop(brand)") == 2.0

    def test_estimate_count_rounds(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        assert estimator.estimate_count("laptop(brand)") == 2

    def test_bad_type_rejected(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        with pytest.raises(TypeError):
            estimator.estimate(3.14)

    def test_repr(self, figure1_lattice):
        assert "voting=False" in repr(RecursiveDecompositionEstimator(figure1_lattice))


class TestLargeQueryAgainstTruth:
    def test_five_node_twig_on_figure1(self, figure1_doc, figure1_lattice):
        # Size-5 twig: one decomposition step above the 4-lattice.
        query = TwigQuery.parse("computer(laptops(laptop(brand,price)))")
        true = count_matches(query.tree, figure1_doc)
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        assert estimator.estimate(query) == pytest.approx(true)

    def test_estimates_nonnegative(self, small_nasa_lattice):
        estimator = RecursiveDecompositionEstimator(small_nasa_lattice, voting=True)
        queries = [
            "datasets(dataset(title),dataset(author(lastName),date))",
            "dataset(author(lastName,firstName),date(year,month))",
        ]
        for text in queries:
            assert estimator.estimate(text) >= 0.0


class TestQueryKey:
    """Each query is resolved to its canonical form once, on every path."""

    #: Size 6 (> k = 4), with the children of ``laptop`` out of order.
    UNSORTED = (
        "computer",
        (
            ("laptops", (("laptop", (("price", ()), ("brand", ()))),)),
            ("desktops", ()),
        ),
    )
    TEXT = "computer(desktops,laptops(laptop(brand,price)))"

    def test_unsorted_canon_tuple_is_recanonicalised(self, figure1_lattice):
        sorted_twin = canon(canon_to_tree(self.UNSORTED))
        assert sorted_twin != self.UNSORTED
        expected = RecursiveDecompositionEstimator(figure1_lattice).estimate(
            self.TEXT
        )
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        assert estimator.estimate(self.UNSORTED) == expected
        assert estimator.estimate(sorted_twin) == expected
        assert estimator.estimate(self.TEXT) == expected
        assert len(estimator._plans) == 1

    def test_from_pattern_seeds_the_canonical_form(self, monkeypatch):
        def no_walk(tree):
            raise AssertionError("canonical() walked the tree")

        monkeypatch.setattr("repro.trees.twig.canon", no_walk)
        query = TwigQuery.from_pattern(self.TEXT)
        assert query.canonical() == decode_canon(self.TEXT)

    def test_mixed_input_batch_matches_plan_path(self, figure1_lattice):
        text = "computer(laptops(laptop(brand,price)),desktops(desktop))"
        queries = [
            TwigQuery.parse(text),
            TwigQuery.parse(text).tree,
            text,
            self.UNSORTED,
            TwigQuery.parse("/computer/laptops/laptop[brand]/price"),
            self.TEXT,
        ]

        def fresh():
            return RecursiveDecompositionEstimator(figure1_lattice, voting=True)

        expected = [fresh().estimate(query) for query in queries]
        assert fresh().estimate_batch(queries) == expected
        assert fresh().estimate_batch(queries, workers=2) == expected
        if HAVE_NUMPY:
            estimator = fresh()
            assert estimator.estimate_batch(queries, backend="numpy") == expected
            assert estimator.estimate_batch(queries, backend="numpy") == expected
