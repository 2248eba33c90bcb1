"""Property-based tests (hypothesis) for the core invariants.

These pin down the claims the paper's correctness rests on:
canonical-form invariance, matcher correctness against brute force,
miner completeness, estimator exactness inside the lattice, the Lemma 2
covering invariants, Lemma 4 (Markov equivalence on paths), and Lemma 5
(0-derivable pruning is lossless).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DocumentIndex,
    FixedDecompositionEstimator,
    LabeledTree,
    LatticeSummary,
    MarkovPathEstimator,
    RecursiveDecompositionEstimator,
    TwigQuery,
    canon,
    count_matches,
    decode_tree,
    encode_tree,
    mine_lattice,
    prune_derivable,
)
from repro.core.decompose import fixed_cover, leaf_pair_decompositions
from repro.trees.matching import injective_assignment_count

from .conftest import brute_force_matches, brute_force_patterns

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

LABELS = "abcde"


@st.composite
def random_tree(draw, min_size=1, max_size=10, labels=LABELS):
    """Uniform-ish random labeled tree via random parent pointers."""
    size = draw(st.integers(min_size, max_size))
    parent_choices = [
        draw(st.integers(0, i - 1)) for i in range(1, size)
    ]
    node_labels = [draw(st.sampled_from(labels)) for _ in range(size)]
    tree = LabeledTree(node_labels[0])
    for i in range(1, size):
        tree.add_child(parent_choices[i - 1], node_labels[i])
    return tree


@st.composite
def shuffled_copy(draw, tree):
    """Rebuild ``tree`` with every node's children in a drawn order."""
    order_seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(order_seed)
    copy = LabeledTree(tree.label(0))
    mapping = {0: 0}
    stack = [0]
    while stack:
        node = stack.pop()
        kids = list(tree.child_ids(node))
        rng.shuffle(kids)
        for kid in kids:
            mapping[kid] = copy.add_child(mapping[node], tree.label(kid))
            stack.append(kid)
    return copy


@st.composite
def document_twig(draw, k=3):
    """A document and a connected twig of ``k+1`` to ``k+4`` of its nodes.

    The twig is grown downward from a drawn start node, one drawn
    frontier child at a time, and cut out with ``induced_subtree``.
    """
    doc = draw(random_tree(min_size=k + 4, max_size=14, labels="abc"))
    size = draw(st.integers(k + 1, k + 4))
    below = [1] * doc.size
    for node in reversed(list(doc.preorder())):
        if node != doc.root:
            below[doc.parent(node)] += below[node]
    start = draw(st.sampled_from([n for n in range(doc.size) if below[n] >= size]))
    chosen = [start]
    frontier = list(doc.child_ids(start))
    while len(chosen) < size:
        node = frontier.pop(draw(st.integers(0, len(frontier) - 1)))
        chosen.append(node)
        frontier.extend(doc.child_ids(node))
    return doc, doc.induced_subtree(chosen)


# ----------------------------------------------------------------------
# Canonical forms
# ----------------------------------------------------------------------


class TestCanonicalProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_canon_invariant_under_sibling_shuffle(self, data):
        tree = data.draw(random_tree())
        shuffled = data.draw(shuffled_copy(tree))
        assert canon(tree) == canon(shuffled)

    @given(random_tree())
    @settings(max_examples=60, deadline=None)
    def test_codec_roundtrip(self, tree):
        assert canon(decode_tree(encode_tree(tree))) == canon(tree)

    @given(random_tree())
    @settings(max_examples=60, deadline=None)
    def test_canon_size_matches_tree(self, tree):
        from repro.trees.canonical import canon_size

        assert canon_size(canon(tree)) == tree.size


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------


class TestMatchingProperties:
    @given(random_tree(max_size=4, labels="ab"), random_tree(max_size=7, labels="ab"))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, query, data):
        assert count_matches(query, data) == brute_force_matches(query, data)

    @given(random_tree(max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_tree_matches_itself(self, tree):
        assert count_matches(tree, tree) >= 1

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_occurrence_closed_under_leaf_removal(self, data):
        """If a query matches, so does the query with a leaf removed.

        (Counts themselves are NOT monotone: a(a,a) has 6 matches in
        a(a,a,a) while a(a) has only 3 — injective multiplicity.)
        """
        query = data.draw(random_tree(min_size=2, max_size=6, labels="ab"))
        doc = data.draw(random_tree(max_size=9, labels="ab"))
        removable = query.removable_nodes()
        node = data.draw(st.sampled_from(removable))
        smaller = query.remove_node(node)
        if count_matches(query, doc) > 0:
            assert count_matches(smaller, doc) > 0

    @given(
        st.lists(
            st.dictionaries(st.integers(0, 5), st.integers(0, 4), max_size=4),
            max_size=4,
        ),
        st.lists(st.integers(0, 5), max_size=5, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_permanent_matches_brute_force(self, maps, data_children):
        import itertools

        expected = 0
        if len(maps) <= len(data_children):
            for assignment in itertools.permutations(data_children, len(maps)):
                product = 1
                for cmap, v in zip(maps, assignment):
                    product *= cmap.get(v, 0)
                expected += product
        assert injective_assignment_count(maps, data_children) == expected


# ----------------------------------------------------------------------
# Mining
# ----------------------------------------------------------------------


class TestMiningProperties:
    @given(random_tree(min_size=2, max_size=8, labels="abc"))
    @settings(max_examples=25, deadline=None)
    def test_completeness_vs_brute_force(self, doc):
        mined = mine_lattice(doc, 3)
        assert mined.all_patterns() == brute_force_patterns(doc, 3)

    @given(random_tree(min_size=2, max_size=10, labels="abc"))
    @settings(max_examples=25, deadline=None)
    def test_counts_exact(self, doc):
        index = DocumentIndex(doc)
        mined = mine_lattice(index, 3)
        for pattern, count in mined.all_patterns().items():
            assert count == count_matches(pattern, index)

    @given(random_tree(min_size=3, max_size=10, labels="abc"))
    @settings(max_examples=25, deadline=None)
    def test_apriori_closure(self, doc):
        """Deleting any removable node of an occurring pattern yields an
        occurring pattern (the closure the candidate generation relies on).
        Note the *count* is not monotone in pattern size — injective
        multiplicity can make a larger pattern's count exceed a smaller
        one's — so only the occurrence closure is asserted."""
        mined = mine_lattice(doc, 4)
        from repro.trees.canonical import canon_to_tree

        for size in (2, 3, 4):
            smaller_level = mined.patterns(size - 1)
            for pattern in mined.patterns(size):
                tree = canon_to_tree(pattern)
                for node in tree.removable_nodes():
                    assert canon(tree.remove_node(node)) in smaller_level


# ----------------------------------------------------------------------
# Decomposition and estimation
# ----------------------------------------------------------------------


class TestEstimatorProperties:
    @given(random_tree(min_size=4, max_size=16, labels="abc"))
    @settings(max_examples=20, deadline=None)
    def test_exact_inside_lattice(self, doc):
        lattice = LatticeSummary.build(doc, 3)
        estimators = [
            RecursiveDecompositionEstimator(lattice),
            RecursiveDecompositionEstimator(lattice, voting=True),
            FixedDecompositionEstimator(lattice),
        ]
        for pattern, count in lattice.patterns():
            for estimator in estimators:
                assert estimator.estimate(pattern) == float(count)

    @given(random_tree(min_size=3, max_size=8, labels="abc"))
    @settings(max_examples=30, deadline=None)
    def test_leaf_pair_split_sizes(self, tree):
        for split in leaf_pair_decompositions(tree):
            assert split.t1.size == tree.size - 1
            assert split.t2.size == tree.size - 1
            assert split.common.size == tree.size - 2

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_fixed_cover_lemma2(self, data):
        tree = data.draw(random_tree(min_size=3, max_size=10, labels="abc"))
        k = data.draw(st.integers(2, tree.size))
        blocks = fixed_cover(tree, k)
        assert len(blocks) == tree.size - k + 1
        assert all(piece.block.size == k for piece in blocks)
        assert all(piece.overlap.size == k - 1 for piece in blocks[1:])

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_lemma4_markov_equivalence(self, data):
        doc = data.draw(random_tree(min_size=4, max_size=14, labels="abc"))
        lattice = LatticeSummary.build(doc, 3)
        length = data.draw(st.integers(4, 6))
        labels = [data.draw(st.sampled_from("abc")) for _ in range(length)]
        query = TwigQuery.path(labels)
        markov = MarkovPathEstimator(lattice).estimate(query)
        recursive = RecursiveDecompositionEstimator(lattice).estimate(query)
        voting = RecursiveDecompositionEstimator(lattice, voting=True).estimate(query)
        fixed = FixedDecompositionEstimator(lattice).estimate(query)
        assert recursive == pytest.approx(markov, rel=1e-9, abs=1e-12)
        assert voting == pytest.approx(markov, rel=1e-9, abs=1e-12)
        assert fixed == pytest.approx(markov, rel=1e-9, abs=1e-12)

    @given(random_tree(min_size=4, max_size=14, labels="abc"))
    @settings(max_examples=15, deadline=None)
    def test_lemma5_zero_delta_pruning_lossless(self, doc):
        lattice = LatticeSummary.build(doc, 3)
        pruned = prune_derivable(lattice, 0.0)
        full_est = RecursiveDecompositionEstimator(lattice)
        pruned_est = RecursiveDecompositionEstimator(pruned)
        for pattern, _count in lattice.patterns():
            assert pruned_est.estimate(pattern) == pytest.approx(
                full_est.estimate(pattern), rel=1e-9, abs=1e-12
            )

    @given(random_tree(min_size=1, max_size=12, labels="ab"))
    @settings(max_examples=30, deadline=None)
    def test_estimates_nonnegative(self, query):
        doc = LabeledTree.from_nested(
            ("a", [("b", ["a", "b"]), ("a", [("b", ["a"])]), "b"])
        )
        lattice = LatticeSummary.build(doc, 3)
        for estimator in (
            RecursiveDecompositionEstimator(lattice, voting=True),
            FixedDecompositionEstimator(lattice),
        ):
            if query.size >= 2 or True:
                assert estimator.estimate(query) >= 0.0


# ----------------------------------------------------------------------
# An estimate depends only on the twig
# ----------------------------------------------------------------------


def twig_estimators(twig):
    """Factories of every estimator that accepts ``twig``."""
    makers = [
        RecursiveDecompositionEstimator,
        lambda lattice: RecursiveDecompositionEstimator(lattice, voting=True),
        FixedDecompositionEstimator,
    ]
    if TwigQuery(twig).is_path():
        makers.append(MarkovPathEstimator)
    return makers


class TestEstimateDependsOnlyOnTwig:
    """Definition 1 matches unordered twigs, so node numbering is noise.

    A twig and its re-numbered twin (children shuffled at every node)
    must estimate bit-identically, whatever the estimator saw before.
    """

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_renumbered_twin_estimates_bit_identically(self, data):
        doc, twig = data.draw(document_twig())
        twin = data.draw(shuffled_copy(twig))
        lattice = LatticeSummary.build(doc, 3)
        for make in twig_estimators(twig):
            value = make(lattice).estimate(twig)
            # (a) a fresh estimator per instance
            assert make(lattice).estimate(twin) == value
            # (b) an estimator that first estimated the twin
            warmed = make(lattice)
            warmed.estimate(twin)
            assert warmed.estimate(twig) == value
            # (c) a batch on a fresh estimator against fresh per-query calls
            assert make(lattice).estimate_batch([twin, twig]) == [
                make(lattice).estimate(query) for query in (twin, twig)
            ]
