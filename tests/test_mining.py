"""Unit tests for the level-wise lattice miner."""

from hypothesis import given, settings, strategies as st

from repro import DocumentIndex, LabeledTree, count_matches, mine_lattice
from repro.mining import anchored_counts, pattern_counts_by_level
from repro.trees.canonical import canon_from_nested, canon_size

from .conftest import brute_force_patterns
from .test_properties import random_tree


class TestLevelOne:
    def test_labels_and_counts(self, figure1_doc):
        result = mine_lattice(figure1_doc, 1)
        level1 = result.patterns(1)
        assert level1[("laptop", ())] == 2
        assert level1[("brand", ())] == 3
        assert len(level1) == len(figure1_doc.distinct_labels())


class TestCompleteness:
    def test_figure1_matches_brute_force(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 4)
        expected = brute_force_patterns(figure1_doc, 4)
        got = mined.all_patterns()
        assert got == expected

    def test_duplicate_label_document(self):
        doc = LabeledTree.from_nested(
            ("a", [("a", ["b", "b"]), ("b", [("a", ["b"])])])
        )
        mined = mine_lattice(doc, 3)
        expected = brute_force_patterns(doc, 3)
        assert mined.all_patterns() == expected

    def test_every_count_matches_exact_matcher(self, figure1_doc):
        index = DocumentIndex(figure1_doc)
        mined = mine_lattice(index, 4)
        for pattern, count in mined.all_patterns().items():
            assert count == count_matches(pattern, index), pattern

    def test_pattern_sizes_respect_levels(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 3)
        for size, patterns in mined.levels.items():
            assert all(canon_size(c) == size for c in patterns)

    def test_all_counts_positive(self, small_nasa):
        mined = mine_lattice(small_nasa, 3)
        assert all(
            count > 0 for level in mined.levels.values() for count in level.values()
        )


class TestInjectiveCounts:
    def test_multiplicity_counts(self):
        # a with three b's: pattern a(b) occurs 3 times, a(b,b) 6 times
        # (ordered injective pairs).
        doc = LabeledTree.from_nested(("a", ["b", "b", "b"]))
        mined = mine_lattice(doc, 3)
        assert mined.patterns(2)[canon_from_nested(("a", ["b"]))] == 3
        assert mined.patterns(3)[canon_from_nested(("a", ["b", "b"]))] == 6


class TestSampling:
    def test_extend_cap_records_capped_levels(self, small_nasa):
        full = mine_lattice(small_nasa, 4)
        capped = mine_lattice(small_nasa, 4, extend_cap=10, seed=3)
        assert capped.capped_levels  # something was sampled
        # Capped mining yields a subset of the full lattice at each level.
        for size in capped.levels:
            full_level = full.patterns(size)
            for pattern, count in capped.patterns(size).items():
                assert full_level[pattern] == count

    def test_deterministic_given_seed(self, small_nasa):
        a = mine_lattice(small_nasa, 4, extend_cap=10, seed=5)
        b = mine_lattice(small_nasa, 4, extend_cap=10, seed=5)
        assert a.all_patterns() == b.all_patterns()

    def test_no_cap_no_capped_levels(self, figure1_doc):
        assert mine_lattice(figure1_doc, 4).capped_levels == []


class TestResultHelpers:
    def test_total_patterns(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 3)
        assert mined.total_patterns() == sum(
            len(level) for level in mined.levels.values()
        )

    def test_missing_level_empty(self, figure1_doc):
        assert mine_lattice(figure1_doc, 2).patterns(9) == {}

    def test_invalid_max_size(self, figure1_doc):
        import pytest

        with pytest.raises(ValueError):
            mine_lattice(figure1_doc, 0)

    def test_stops_on_empty_level(self):
        doc = LabeledTree.path(["a", "b"])
        mined = mine_lattice(doc, 5)
        assert mined.patterns(2) == {canon_from_nested(("a", ["b"])): 1}
        assert mined.patterns(3) == {}
        assert 5 not in mined.levels or mined.patterns(5) == {}


class TestPatternCountsByLevel:
    def test_table2_helper(self, figure1_doc):
        counts = pattern_counts_by_level(figure1_doc, 3)
        assert counts[1] == len(figure1_doc.distinct_labels())
        assert all(isinstance(v, int) for v in counts.values())


class TestAnchoredCounts:
    def test_empty_anchor_set_counts_nothing(self):
        tree = LabeledTree.from_nested(("a", [("b", [])]))
        assert anchored_counts(DocumentIndex(tree), (), 3) == {}

    @settings(max_examples=40, deadline=None)
    @given(tree=random_tree(labels="abcd"), level=st.integers(1, 3))
    def test_all_nodes_anchored_recovers_full_counts(self, tree, level):
        # Every occurrence maps its root to exactly one node, so
        # anchoring at every node recovers the whole-document counts.
        index = DocumentIndex(tree)
        full = dict(mine_lattice(tree, level).all_patterns())
        assert anchored_counts(index, tuple(range(tree.size)), level) == full

    @settings(max_examples=40, deadline=None)
    @given(tree=random_tree(labels="abcd"), level=st.integers(1, 3))
    def test_anchor_partition_sums_to_full_counts(self, tree, level):
        # Splitting the anchor set splits the counts additively, which is
        # what lets a streaming update difference root-anchored counts.
        index = DocumentIndex(tree)
        mid = tree.size // 2
        low = anchored_counts(index, tuple(range(mid)), level)
        high = anchored_counts(index, tuple(range(mid, tree.size)), level)
        total: dict = dict(low)
        for key, count in high.items():
            total[key] = total.get(key, 0) + count
        assert total == dict(mine_lattice(tree, level).all_patterns())
