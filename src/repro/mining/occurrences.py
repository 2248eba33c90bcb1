"""Occurrence maps: the miner's one counting primitive.

Every pattern ``P`` has an *anchor map* ``M_P = {node: rooted count}``:
the number of matches of ``P`` whose root lands on each document node.
The selectivity of ``P`` is the sum of its map's values.  The map of
``P = (label, kids)`` follows from its kids' maps without walking the
document again:

* Kids with different root labels can only land on children with
  different labels, so they never compete for a child.  The count at a
  parent ``v`` is a product over the kids' *label groups*.
* For a sorted tuple ``B`` of same-label sibling sub-patterns, the
  **aggregate** ``A_B(v) = Σ_{u child of v} Π_{c ∈ B} M_c(u)`` counts
  the ways to put every kid of ``B`` on one shared child of ``v``.
  Aggregates are memoised, bucketed by the parent's label.
* A group of ``r`` same-label kids needs its kids on *distinct*
  children of ``v``: the permanent of ``m[i][u] = M_{c_i}(u)``.  Möbius
  inversion over the lattice of set partitions of the group gives it
  exactly from aggregates::

      perm(v) = Σ_π Π_{B ∈ π} (−1)^{|B|−1} (|B|−1)! · A_B(v)

  (for ``r = 2``: ``A_1·A_2 − A_12``).  Partitions whose blocks are the
  same multisets of identical kids are merged into one term.

Only parents that carry ``label`` and have a child matching *every* kid
can have a non-zero count, so a candidate is evaluated only at the
parents in its smallest single-kid bucket.  That makes its cost scale
with the anchors of one bucket, not with every node of the root label.

:class:`OccurrenceCounter` memoises maps and aggregates for one document
and computes any missing sub-pattern's map recursively, so it serves the
level-wise miner (whose levels reuse the previous level's maps) and
root-anchored streaming deltas alike.  The
independent subset-DP matcher, :func:`repro.trees.matching.count_matches`,
stays the test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

from ..trees.canonical import Canon, canon_children, canon_label
from ..trees.matching import DocumentIndex

__all__ = ["OccurrenceCounter"]

#: ``(coefficient, blocks)``: one merged term of a group permanent, each
#: block a sorted tuple of kid class ids.
Term = tuple[int, tuple[tuple[int, ...], ...]]

#: Shared empty map for patterns that never occur; never mutated.
_NOWHERE: dict[int, int] = {}


@lru_cache(maxsize=None)
def _partition_terms(classes: tuple[int, ...]) -> tuple[Term, ...]:
    """Merged Möbius terms of the permanent of one same-label kid group.

    ``classes[i]`` identifies the ``i``-th kid; equal ids mark identical
    kid patterns.  Each set partition ``π`` of the kids contributes
    ``Π_B (−1)^{|B|−1} (|B|−1)!``; partitions whose blocks hold the same
    multisets of class ids share one term.
    """
    merged: dict[tuple[tuple[int, ...], ...], int] = {}
    blocks: list[list[int]] = []

    def place(item: int) -> None:
        if item == len(classes):
            coefficient = 1
            for block in blocks:
                size = len(block)
                coefficient *= (-1) ** (size - 1) * factorial(size - 1)
            key = tuple(sorted(tuple(sorted(classes[i] for i in b)) for b in blocks))
            merged[key] = merged.get(key, 0) + coefficient
            return
        for block in blocks:
            block.append(item)
            place(item + 1)
            block.pop()
        blocks.append([item])
        place(item + 1)
        blocks.pop()

    place(0)
    return tuple((coefficient, key) for key, coefficient in sorted(merged.items()))


def _classes(kids: Sequence[Canon]) -> tuple[tuple[int, ...], list[int]]:
    """Class id of each kid (identical kids share one) and one kid per class."""
    ids: list[int] = []
    representatives: list[int] = []
    for position, kid in enumerate(kids):
        for class_id, first in enumerate(representatives):
            if kids[first] == kid:
                break
        else:
            class_id = len(representatives)
            representatives.append(position)
        ids.append(class_id)
    return tuple(ids), representatives


def _times_permanent(
    values: dict[int, int], terms: list[tuple[int, list[dict[int, int]]]]
) -> dict[int, int]:
    """``values`` times one group's permanent per parent; zeros dropped."""
    out: dict[int, int] = {}
    for node, value in values.items():
        permanent = 0
        for coefficient, factors in terms:
            term = coefficient
            for factor in factors:
                term *= factor.get(node, 0)
                if not term:
                    break
            permanent += term
        if permanent:
            out[node] = value * permanent
    return out


class OccurrenceCounter:
    """Counts patterns in one document from memoised anchor maps.

    Maps and aggregates persist across calls, so counting level ``n+1``
    of a mine reuses the maps of level ``<= n``.  A pattern whose map is
    not memoised yet is computed from its kids' maps, recursively, so
    any pattern can be counted in any order with the same result.
    """

    __slots__ = ("index", "_maps", "_aggregates", "_parent_of", "_label_of")

    def __init__(self, index: DocumentIndex) -> None:
        self.index = index
        self._maps: dict[Canon, dict[int, int]] = {}
        self._aggregates: dict[tuple[Canon, ...], dict[str, dict[int, int]]] = {}
        self._parent_of = index.tree.parents
        self._label_of = index.tree.labels

    def _anchor_map(self, pattern: Canon) -> dict[int, int]:
        """``{node: matches of pattern rooted there}``, non-zero entries only.

        Memoised; the returned dict is shared and must not be mutated.
        """
        got = self._maps.get(pattern)
        if got is None:
            got = self._evaluate(pattern)
            self._maps[pattern] = got
        return got

    def count(self, pattern: Canon, *, keep_map: bool = True) -> int:
        """Exact selectivity of ``pattern``.

        ``keep_map=False`` sums the counts without memoising the map, for
        patterns no later count builds on (the top level of a mine).
        """
        if keep_map:
            return sum(self._anchor_map(pattern).values())
        return sum(self._evaluate(pattern).values())

    def anchored(self, pattern: Canon, anchors: Sequence[int]) -> int:
        """Matches of ``pattern`` whose root lands on one of ``anchors``.

        Evaluated only at the anchors and not memoised; the kids' maps
        are memoised as usual.  An anchor listed twice counts twice.
        """
        got = self._evaluate(pattern, dict.fromkeys(anchors))
        return sum(got.get(anchor, 0) for anchor in anchors)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _aggregate(self, block: tuple[Canon, ...]) -> dict[str, dict[int, int]]:
        """``A_B`` bucketed by parent label: ``{label: {parent: value}}``."""
        got = self._aggregates.get(block)
        if got is not None:
            return got
        maps = sorted((self._anchor_map(kid) for kid in block), key=len)
        products = maps[0]
        for other in maps[1:]:
            products = {u: n * other[u] for u, n in products.items() if u in other}
        parents = self._parent_of
        labels = self._label_of
        out: dict[str, dict[int, int]] = {}
        for node, value in products.items():
            parent = parents[node]
            if parent < 0:
                continue
            bucket = out.get(labels[parent])
            if bucket is None:
                bucket = {}
                out[labels[parent]] = bucket
            bucket[parent] = bucket.get(parent, 0) + value
        self._aggregates[block] = out
        return out

    def _evaluate(
        self, pattern: Canon, anchors: Iterable[int] | None = None
    ) -> dict[int, int]:
        """Map of ``pattern`` at every node, or only at distinct ``anchors``.

        A single-node pattern's map is the label's node set either way.
        """
        label = canon_label(pattern)
        kids = canon_children(pattern)
        if not kids:
            return dict.fromkeys(self.index.nodes_by_label.get(label, ()), 1)
        singles: list[dict[int, int]] = []
        groups: list[list[tuple[int, list[dict[int, int]]]]] = []
        lead: dict[int, int] = _NOWHERE
        start = 0
        while start < len(kids):
            kid_label = canon_label(kids[start])
            stop = start + 1
            while stop < len(kids) and canon_label(kids[stop]) == kid_label:
                stop += 1
            group = kids[start:stop]
            start = stop
            buckets: list[dict[int, int]] = []
            for kid in group:
                bucket = self._aggregate((kid,)).get(label)
                if not bucket:
                    return _NOWHERE
                buckets.append(bucket)
                if lead is _NOWHERE or len(bucket) < len(lead):
                    lead = bucket
            if len(group) == 1:
                singles.append(buckets[0])
            else:
                groups.append(self._group_terms(label, group))
        # Visit only the smallest bucket's parents.  When that bucket is a
        # lone kid's, its values are that kid's factor (and, for a one-kid
        # pattern, the map itself, shared).  Products of positive counts
        # stay positive; only a permanent can be zero.
        weighted = any(bucket is lead for bucket in singles)
        values = lead if weighted else dict.fromkeys(lead, 1)
        if anchors is not None:
            values = {a: values[a] for a in anchors if a in values}
        for bucket in singles:
            if bucket is not lead:
                values = {v: n * bucket[v] for v, n in values.items() if v in bucket}
        for terms in groups:
            values = _times_permanent(values, terms)
        return values

    def _group_terms(
        self, label: str, group: tuple[Canon, ...]
    ) -> list[tuple[int, list[dict[int, int]]]]:
        """The group's permanent terms with each block resolved to ``A_B``.

        Terms with a block that is zero under every ``label`` parent are
        dropped.
        """
        classes, representatives = _classes(group)
        resolved: list[tuple[int, list[dict[int, int]]]] = []
        for coefficient, blocks in _partition_terms(classes):
            factors: list[dict[int, int]] = []
            for block in blocks:
                kids = tuple(group[representatives[class_id]] for class_id in block)
                bucket = self._aggregate(kids).get(label)
                if not bucket:
                    break
                factors.append(bucket)
            else:
                resolved.append((coefficient, factors))
        return resolved
