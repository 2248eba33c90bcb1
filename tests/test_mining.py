"""Unit tests for the level-wise lattice miner."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import DocumentIndex, LabeledTree, count_matches, mine_lattice, obs
from repro.mining import anchored_counts, pattern_counts_by_level
from repro.mining.occurrences import OccurrenceCounter
from repro.trees.canonical import canon_from_nested, canon_size
from repro.trees.matching import count_rooted_matches, injective_assignment_count

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


class TestMiningTimingSplit:
    def test_candidate_and_counting_spans(self, figure1_doc: LabeledTree) -> None:
        with obs.observed(trace=True) as (registry, tracer):
            mine_lattice(figure1_doc, 3)
        for name in ("mining_candidate_seconds", "mining_counting_seconds"):
            metric = registry.get(name)
            assert metric is not None, name
            assert all(value >= 0 for _, value in metric.samples())
        assert tracer is not None
        level_events = tracer.by_event("mine_level")
        assert level_events
        for event in level_events:
            assert "candidate_seconds" in event
            assert "counting_seconds" in event
            assert event["seconds"] == pytest.approx(
                event["candidate_seconds"] + event["counting_seconds"], abs=2e-6
            )

    @pytest.mark.parametrize(
        ("document", "k"), [("small_xmark", 4), ("small_imdb", 5)]
    )
    def test_level_counters_add_up(self, request, document: str, k: int) -> None:
        with obs.observed() as (registry, _):
            mined = mine_lattice(request.getfixturevalue(document), k)

        def total(name: str) -> float:
            return sum(value for _, value in registry.get(name).samples())

        evaluations = registry.get("mining_candidate_evaluations_total").value()
        assert evaluations == total("mining_candidates_total") > 0
        above_level_one = mined.total_patterns() - len(mined.patterns(1))
        assert total("mining_patterns_kept_total") == above_level_one


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


@st.composite
def wide_tree(draw, max_nodes=14):
    """Labels ``a``/``b`` with up to 8 children per node, breadth first.

    Runs of same-label siblings make mined patterns whose root has 3-5
    same-label kids, the occurrence counter's permanent path.
    """
    tree = LabeledTree(draw(st.sampled_from("ab")))
    queue = [tree.root]
    while queue and tree.size < max_nodes:
        node = queue.pop(0)
        room = min(8, max_nodes - tree.size)
        for label in draw(st.lists(st.sampled_from("ab"), max_size=room)):
            queue.append(tree.add_child(node, label))
    return tree


EIGHT_SAME = LabeledTree.from_nested(("a", ["b"] * 8))
MIXED_FANOUT = LabeledTree.from_nested(
    ("a", [("b", ["a", "a", "a"]), ("b", ["a", "a"]), "b", "b", "a"])
)


class TestOccurrenceCounter:
    """The occurrence-map counter against the subset-DP oracle."""

    @settings(max_examples=60, deadline=None)
    @given(tree=wide_tree(), k=st.integers(4, 6))
    @example(tree=EIGHT_SAME, k=6)
    @example(tree=MIXED_FANOUT, k=6)
    def test_wide_fanout_counts_match_oracle(self, tree, k):
        index = DocumentIndex(tree)
        mined = mine_lattice(index, k)
        assert list(mined.patterns(1)) == [
            (label, ()) for label in index.nodes_by_label
        ]
        for size, level in mined.levels.items():
            if size > 1:
                assert list(level) == sorted(level)
            for pattern, count in level.items():
                assert count == count_matches(pattern, index), pattern
        if tree.size <= 9:
            assert mined.all_patterns() == brute_force_patterns(tree, k)

    @settings(max_examples=60, deadline=None)
    @given(tree=wide_tree(), k=st.integers(4, 6))
    @example(tree=EIGHT_SAME, k=6)
    def test_root_anchored_counts_match_rooted_oracle(self, tree, k):
        index = DocumentIndex(tree)
        anchored = anchored_counts(index, (tree.root,), k)
        mined = mine_lattice(index, k).all_patterns()
        assert anchored.keys() <= mined.keys()
        for pattern in mined:
            rooted = count_rooted_matches(pattern, index).get(tree.root, 0)
            assert anchored.get(pattern, 0) == rooted, pattern

    @settings(max_examples=30, deadline=None)
    @given(tree=wide_tree(), k=st.integers(4, 6))
    def test_any_counting_order_gives_the_same_counts(self, tree, k):
        # A fresh counter asked for the largest patterns first builds
        # every sub-pattern's map on demand.
        index = DocumentIndex(tree)
        mined = mine_lattice(index, k).all_patterns()
        counter = OccurrenceCounter(index)
        for i, pattern in enumerate(sorted(mined, key=canon_size, reverse=True)):
            assert counter.count(pattern, keep_map=i % 2 == 0) == mined[pattern]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_label_group_matches_subset_dp(self, data):
        # Kid ``b(c<d>)`` has rooted count ``distinct[d][j]`` on the
        # ``b`` child for column ``j``, so the root count of the star
        # pattern is the permanent of the drawn weight rows.
        columns = data.draw(st.lists(st.integers(0, 8), unique=True, max_size=7))
        weights = st.dictionaries(st.integers(0, 8), st.integers(0, 4), max_size=7)
        distinct = data.draw(st.lists(weights, min_size=1, max_size=5))
        # Rows drawn with repetition, so identical kids share a class.
        picks = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=5)
        )
        tree = LabeledTree("a")
        for column in columns:
            child = tree.add_child(tree.root, "b")
            for d, row in enumerate(distinct):
                for _ in range(row.get(column, 0)):
                    tree.add_child(child, f"c{d}")
        pattern = canon_from_nested(("a", [("b", [f"c{d}"]) for d in picks]))
        index = DocumentIndex(tree)
        expected = injective_assignment_count([distinct[d] for d in picks], columns)
        assert OccurrenceCounter(index).count(pattern) == expected
        assert count_matches(pattern, index) == expected

    def test_identical_kids_take_distinct_children(self):
        # Five identical kids over six children: 6*5*4*3*2 assignments.
        index = DocumentIndex(LabeledTree.from_nested(("a", [("b", ["c"])] * 6)))
        pattern = canon_from_nested(("a", [("b", ["c"])] * 5))
        assert OccurrenceCounter(index).count(pattern) == 720
