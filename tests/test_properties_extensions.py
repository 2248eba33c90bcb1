"""Property-based tests for the extension modules.

Covers the invariants the extensions promise: enumeration agrees with
the counting DP; region encodings reproduce parent/ancestor structure;
streaming maintenance is bit-exact with rebuilds; the path join
agrees with match semantics on linear queries; bucketed values keep the
matcher exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DocumentIndex,
    LabeledTree,
    StreamingSummary,
    count_matches,
    mine_lattice,
)
from repro.trees.regions import RegionIndex
from repro.trees.twigjoin import PathJoin, count_via_enumeration

from .test_properties import random_tree


class TestEnumerationProperties:
    @given(
        random_tree(max_size=4, labels="ab"),
        random_tree(max_size=8, labels="ab"),
    )
    @settings(max_examples=40, deadline=None)
    def test_enumeration_count_equals_dp(self, query, doc):
        assert count_via_enumeration(query, doc) == count_matches(query, doc)

    @given(
        random_tree(max_size=4, labels="ab"),
        random_tree(max_size=8, labels="ab"),
    )
    @settings(max_examples=25, deadline=None)
    def test_enumerated_matches_are_valid_and_distinct(self, query, doc):
        from repro.trees.twigjoin import enumerate_matches

        seen = set()
        for match in enumerate_matches(query, doc):
            key = tuple(sorted(match.items()))
            assert key not in seen
            seen.add(key)
            assert len(set(match.values())) == len(match)
            for qnode, dnode in match.items():
                assert query.label(qnode) == doc.label(dnode)
                qparent = query.parent(qnode)
                if qparent != -1:
                    assert doc.parent(dnode) == match[qparent]


class TestRegionProperties:
    @given(random_tree(max_size=12, labels="abc"))
    @settings(max_examples=40, deadline=None)
    def test_parent_relation_reconstructed(self, tree):
        index = RegionIndex(tree)
        for node in range(tree.size):
            for other in range(tree.size):
                expected = tree.parent(other) == node
                got = index.region(node).is_parent_of(index.region(other))
                assert got == expected

    @given(random_tree(max_size=12, labels="abc"))
    @settings(max_examples=40, deadline=None)
    def test_intervals_laminar(self, tree):
        """Any two intervals nest or are disjoint — never partially overlap."""
        index = RegionIndex(tree)
        regions = [index.region(n) for n in range(tree.size)]
        for a in regions:
            for b in regions:
                if a is b:
                    continue
                nested = a.contains(b) or b.contains(a)
                disjoint = a.end < b.start or b.end < a.start
                assert nested != disjoint or (nested and not disjoint)
                assert nested or disjoint


class TestPathJoinProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_path_join_agrees_with_matcher(self, data):
        doc = data.draw(random_tree(min_size=2, max_size=12, labels="abc"))
        length = data.draw(st.integers(1, 4))
        labels = [data.draw(st.sampled_from("abc")) for _ in range(length)]
        join = PathJoin(doc)
        assert join.count(labels) == count_matches(LabeledTree.path(labels), doc)


class TestIncrementalProperties:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_append_equals_rebuild(self, data):
        doc = data.draw(random_tree(min_size=1, max_size=8, labels="abc"))
        streaming = StreamingSummary(doc.copy(), 3, max_pending=0)
        for _ in range(data.draw(st.integers(1, 3))):
            record = data.draw(random_tree(min_size=1, max_size=5, labels="abc"))
            streaming.insert(record)
        rebuilt = mine_lattice(streaming.document, 3).all_patterns()
        assert dict(streaming.summary().patterns()) == rebuilt


class TestValueProperties:
    @given(st.lists(st.sampled_from(["10", "20", "30"]), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_value_counts_add_up(self, prices):
        from repro.trees.values import tree_from_xml_with_values, value_twig

        xml = "<shop>" + "".join(
            f"<item><price>{p}</price></item>" for p in prices
        ) + "</shop>"
        doc = tree_from_xml_with_values(xml, buckets=64)
        total = 0
        for value in set(prices):
            query = value_twig("/item[price]", {"price": value}, buckets=64)
            total += count_matches(query.tree, doc)
        # With enough buckets (no collision among 3 values) the bucketed
        # counts partition the items exactly.
        assert total == len(prices)
