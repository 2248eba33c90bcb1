"""Twig decomposition primitives (paper §3.1-§3.3).

Two ways to take a twig apart:

* :func:`leaf_pair_decompositions` — the recursive scheme's step: pick
  two degree-1 nodes ``u, v`` and produce ``T1 = T - u``, ``T2 = T - v``
  and their maximal overlap ``T∩ = T - u - v`` (Lemma 1).
* :func:`fixed_cover` — the fix-sized scheme: cover the twig with exactly
  ``n - k + 1`` subtrees of size ``k`` in canonical pre-order, each new
  block overlapping the covered prefix in a ``(k-1)``-subtree (Lemma 2,
  whose constructive proof is this function).

The recursive estimator does not build these trees: it splits canonical
keys with :func:`~repro.trees.canonical.canon_removable_paths` and
:func:`~repro.trees.canonical.canon_without`, in the pair order
:func:`leaf_pair_decompositions` gives the key's canonical instance.
Those primitives are property-tested against the
:class:`~repro.trees.labeled_tree.LabeledTree` operations this module
splits with: ``removable_nodes``, ``remove_node`` and ``remove_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .. import obs
from ..trees.canonical import canonical_preorder
from ..trees.labeled_tree import LabeledTree, TreeBuildError

__all__ = [
    "LeafPairSplit",
    "CoverBlock",
    "leaf_pair_decompositions",
    "first_leaf_pair_split",
    "fixed_cover",
]


@dataclass(frozen=True)
class LeafPairSplit:
    """One recursive-decomposition step: ``s(T) ≈ s(t1) * s(t2) / s(common)``."""

    t1: LabeledTree
    t2: LabeledTree
    common: LabeledTree


@dataclass(frozen=True)
class CoverBlock:
    """One block of a fix-sized cover.

    ``overlap`` is the block's intersection with the previously covered
    prefix — always a ``(k-1)``-subtree, or ``None`` for the first block
    (which has no predecessor).
    """

    block: LabeledTree
    overlap: LabeledTree | None


def leaf_pair_decompositions(tree: LabeledTree) -> Iterator[LeafPairSplit]:
    """Yield every leaf-pair decomposition of ``tree``.

    ``tree`` must have at least three nodes, otherwise removing two
    degree-1 nodes would leave nothing.  Each yielded split removes a
    distinct unordered pair of removable nodes; the voting estimator
    averages over all of them, the plain estimator takes the first.
    """
    if tree.size < 3:
        raise TreeBuildError(
            f"cannot leaf-pair decompose a tree of size {tree.size}"
        )
    nodes = tree.removable_nodes()
    for u, v in combinations(nodes, 2):
        if obs.enabled:
            obs.registry.counter(
                "decompose_splits_total",
                "Leaf-pair splits materialised by the decomposers.",
            ).inc()
        yield LeafPairSplit(
            t1=tree.remove_node(u),
            t2=tree.remove_node(v),
            common=tree.remove_nodes((u, v)),
        )


def first_leaf_pair_split(tree: LabeledTree) -> LeafPairSplit:
    """The deterministic first decomposition (non-voting estimator)."""
    return next(iter(leaf_pair_decompositions(tree)))


def fixed_cover(tree: LabeledTree, k: int) -> list[CoverBlock]:
    """Cover ``tree`` with ``size - k + 1`` subtrees of ``k`` nodes.

    Implements the paper's Figure 5.  Nodes are taken in canonical
    pre-order; the first block is the pre-order prefix of ``k`` nodes
    (always a valid subtree), and each subsequent block covers exactly
    one new node ``v`` together with ``k-1`` already-covered nodes chosen
    from ``v``'s ancestor chain first, then nearest covered neighbours.

    Requires ``2 <= k <= tree.size``.
    """
    n = tree.size
    if k < 2:
        raise ValueError("fix-sized covering needs k >= 2")
    if k > n:
        raise ValueError(f"cannot cover a {n}-node tree with {k}-node blocks")

    order = canonical_preorder(tree)
    position = {node: i for i, node in enumerate(order)}

    covered = set(order[:k])
    blocks = [CoverBlock(block=tree.induced_subtree(order[:k]), overlap=None)]

    for v in order[k:]:
        members = {v}
        walk = tree.parent(v)
        while walk != -1 and len(members) < k:
            members.add(walk)
            walk = tree.parent(walk)
        # Too few ancestors: pad with the nearest covered neighbours of
        # the current member set (deterministically, by pre-order rank).
        while len(members) < k:
            frontier = _covered_neighbours(tree, members, covered)
            if not frontier:  # pragma: no cover - impossible: covered >= k
                raise TreeBuildError("covering ran out of adjacent nodes")
            members.add(min(frontier, key=position.__getitem__))
        block = tree.induced_subtree(members)
        overlap = tree.induced_subtree(members - {v})
        covered.add(v)
        blocks.append(CoverBlock(block=block, overlap=overlap))

    if obs.enabled:
        obs.registry.counter(
            "fixed_cover_builds_total",
            "Fix-sized covers derived (cold cover compilations).",
        ).inc()
    return blocks


def _covered_neighbours(
    tree: LabeledTree, members: set[int], covered: set[int]
) -> list[int]:
    """Covered nodes adjacent to ``members`` but not in it."""
    out: list[int] = []
    for node in sorted(members):
        parent = tree.parent(node)
        if parent != -1 and parent in covered and parent not in members:
            out.append(parent)
        for child in tree.child_ids(node):
            if child in covered and child not in members:
                out.append(child)
    return out
