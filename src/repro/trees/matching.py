"""Exact twig match counting (the paper's Definition 1).

A *match* of a twig query ``Q`` in a data tree ``D`` is an injective
mapping from query nodes to data nodes that preserves labels and
parent-child edges.  The **selectivity** ``s(Q)`` is the number of such
matches.  This module computes it exactly; it is the ground truth against
which every estimator in the library is scored, and the independent
oracle the lattice miner's occurrence counter
(:mod:`repro.mining.occurrences`) is tested against.

Algorithm
---------
Bottom-up dynamic programming over the query.  For a query node ``q`` and
data node ``v`` with the same label, ``m(q, v)`` is the number of matches
of the query subtree rooted at ``q`` that send ``q`` to ``v``:

* if ``q`` is a leaf, ``m(q, v) = 1``;
* otherwise query children must map to *distinct* data children of ``v``,
  so ``m(q, v)`` is the permanent of the matrix
  ``M[i][j] = m(q_child_i, v_child_j)``.

The permanent is computed by a subset DP over query children, which is
exponential only in the query fan-out (tiny for twig queries: the paper's
workloads top out at 8 query nodes).  When the query children carry
pairwise-distinct labels the permanent factorises into a plain product of
row sums, and that fast path covers the vast majority of real twigs.

``DocumentIndex`` caches the per-label node lists of a document so that
repeated counting (the miner, workload generation) only touches
label-compatible data nodes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .canonical import Canon, canon, canon_children, canon_label
from .labeled_tree import LabeledTree

__all__ = [
    "DocumentIndex",
    "count_matches",
    "count_rooted_matches",
    "injective_assignment_count",
    "count_matches_descendant",
]


class DocumentIndex:
    """Per-label indexes over a data tree, shared by repeated counts.

    Attributes
    ----------
    tree:
        The indexed document.
    nodes_by_label:
        ``label -> list of node ids`` with that label.
    child_labels:
        ``parent label -> set of labels observed on its children`` across
        the whole document.  Drives candidate generation in the miner.
    """

    __slots__ = ("tree", "nodes_by_label", "child_labels")

    def __init__(self, tree: LabeledTree) -> None:
        self.tree = tree
        nodes_by_label: dict[str, list[int]] = {}
        child_labels: dict[str, set[str]] = {}
        labels = tree.labels
        parents = tree.parents
        for node, label in enumerate(labels):
            nodes_by_label.setdefault(label, []).append(node)
            parent = parents[node]
            if parent != -1:
                child_labels.setdefault(labels[parent], set()).add(label)
        self.nodes_by_label = nodes_by_label
        self.child_labels = child_labels

    @property
    def size(self) -> int:
        return self.tree.size

    def label_count(self, label: str) -> int:
        """Number of document nodes carrying ``label``."""
        return len(self.nodes_by_label.get(label, ()))


def injective_assignment_count(
    child_maps: Sequence[Mapping[int, int]], data_children: Sequence[int]
) -> int:
    """Count weighted injective assignments of query children to data children.

    ``child_maps[i]`` maps a data node id to the number of matches of the
    ``i``-th query child's subtree rooted there.  The result is the sum,
    over all ways to assign each query child to a *distinct* data child,
    of the product of the chosen counts — i.e. the permanent of the
    implicit count matrix.
    """
    m = len(child_maps)
    if m == 0:
        return 1
    if m == 1:
        cmap = child_maps[0]
        return sum(cmap.get(v, 0) for v in data_children)
    # Subset DP: dp[S] = weighted count of assignments of the query
    # children in S to distinct data children seen so far.
    full = (1 << m) - 1
    dp = [0] * (full + 1)
    dp[0] = 1
    for v in data_children:
        weights = [cmap.get(v, 0) for cmap in child_maps]
        if not any(weights):
            continue
        # Iterate subsets in descending population so each data child is
        # used at most once per assignment.
        for subset in range(full, -1, -1):
            base = dp[subset]
            if not base:
                continue
            for i in range(m):
                bit = 1 << i
                if subset & bit or not weights[i]:
                    continue
                dp[subset | bit] += base * weights[i]
    return dp[full]


def _product_fast_path(
    child_maps: Sequence[Mapping[int, int]], data_children: Sequence[int]
) -> int:
    """Permanent when each data child can serve at most one query child."""
    total = 1
    for cmap in child_maps:
        row = sum(cmap.get(v, 0) for v in data_children)
        if row == 0:
            return 0
        total *= row
    return total


def count_rooted_matches(
    pattern: Canon | LabeledTree, index: DocumentIndex
) -> dict[int, int]:
    """Map ``data node -> number of matches of pattern rooted there``.

    Only nodes with a non-zero count appear in the result.  The total
    selectivity is the sum of the values.
    """
    if isinstance(pattern, LabeledTree):
        pattern = canon(pattern)
    memo: dict[Canon, dict[int, int]] = {}
    return _rooted(pattern, index, memo)


def _rooted(
    pattern: Canon, index: DocumentIndex, memo: dict[Canon, dict[int, int]]
) -> dict[int, int]:
    got = memo.get(pattern)
    if got is not None:
        return got
    label = canon_label(pattern)
    kids = canon_children(pattern)
    candidates = index.nodes_by_label.get(label, ())
    result: dict[int, int] = {}
    if not kids:
        result = dict.fromkeys(candidates, 1)
    else:
        child_maps = [_rooted(kid, index, memo) for kid in kids]
        if all(child_maps):
            kid_labels = [canon_label(kid) for kid in kids]
            distinct = len(set(kid_labels)) == len(kid_labels)
            counter = _product_fast_path if distinct else injective_assignment_count
            tree_children = index.tree.children
            for v in candidates:
                data_children = tree_children[v]
                if not data_children:
                    continue
                n = counter(child_maps, data_children)
                if n:
                    result[v] = n
    memo[pattern] = result
    return result


def count_matches(
    query: Canon | LabeledTree, document: LabeledTree | DocumentIndex
) -> int:
    """Exact selectivity of ``query`` in ``document`` (Definition 1)."""
    index = document if isinstance(document, DocumentIndex) else DocumentIndex(document)
    return sum(count_rooted_matches(query, index).values())


# ----------------------------------------------------------------------
# Extension: descendant-axis matching
# ----------------------------------------------------------------------


def count_matches_descendant(
    query: Canon | LabeledTree, document: LabeledTree | DocumentIndex
) -> int:
    """Selectivity under descendant-axis semantics (extension).

    Every query edge is interpreted as ancestor/descendant rather than
    parent/child, with sibling images required to be distinct.  Note that
    under descendant semantics distinct sibling images no longer guarantee
    globally disjoint subtree images, so this counts *sibling-distinct*
    embeddings — an upper bound on fully injective matches.  The paper
    restricts itself to parent-child twigs (its Definition 1, where the
    two notions coincide), so none of the reproduced experiments use this;
    it is provided because XPath's ``//`` axis is the natural next step
    and the same DP applies after replacing "children of v" with "proper
    descendants of v".
    """
    index = document if isinstance(document, DocumentIndex) else DocumentIndex(document)
    if isinstance(query, LabeledTree):
        query = canon(query)
    tree = index.tree

    # Pre-compute descendant lists lazily per node on demand.
    desc_cache: dict[int, list[int]] = {}

    def descendants(v: int) -> list[int]:
        got = desc_cache.get(v)
        if got is not None:
            return got
        out: list[int] = []
        stack = list(tree.children[v])
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(tree.children[node])
        desc_cache[v] = out
        return out

    memo: dict[Canon, dict[int, int]] = {}

    def rooted(pattern: Canon) -> dict[int, int]:
        got = memo.get(pattern)
        if got is not None:
            return got
        label = canon_label(pattern)
        kids = canon_children(pattern)
        result: dict[int, int] = {}
        candidates = index.nodes_by_label.get(label, ())
        if not kids:
            result = dict.fromkeys(candidates, 1)
        else:
            child_maps = [rooted(kid) for kid in kids]
            if all(child_maps):
                for v in candidates:
                    pool = descendants(v)
                    if not pool:
                        continue
                    n = injective_assignment_count(child_maps, pool)
                    if n:
                        result[v] = n
        memo[pattern] = result
        return result

    return sum(rooted(query).values())
