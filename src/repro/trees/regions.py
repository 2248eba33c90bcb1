"""Positional region encoding for XML trees.

The classic interval labeling used by XML join algorithms (Zhang et al.,
Al-Khalifa et al., and the TwigStack family): each node gets
``(start, end, level)`` where ``start``/``end`` delimit its pre-order
interval.  Structural relationships reduce to arithmetic:

* ``u`` is an ancestor of ``v``  ⇔  ``start(u) < start(v) <= end(v) <= end(u)``
* ``u`` is the parent of ``v``   ⇔  ancestor ∧ ``level(v) == level(u) + 1``
* document order                ⇔  ``start`` order

The twig-join engine (:mod:`repro.trees.twigjoin`) works entirely on
these encodings plus per-label streams, the way a real XML database
would read them off an element index rather than the document tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labeled_tree import LabeledTree

__all__ = ["Region", "RegionIndex"]


@dataclass(frozen=True, order=True)
class Region:
    """Interval label of one document node."""

    start: int
    end: int
    level: int
    node: int

    def is_ancestor_of(self, other: "Region") -> bool:
        """Proper ancestor test (a node is not its own ancestor)."""
        return self.start < other.start and other.end <= self.end

    def is_parent_of(self, other: "Region") -> bool:
        return self.is_ancestor_of(other) and other.level == self.level + 1

    def contains(self, other: "Region") -> bool:
        """Ancestor-or-self test."""
        return self.start <= other.start and other.end <= self.end


class RegionIndex:
    """Region encodings plus per-label streams for a document.

    ``streams[label]`` lists the regions of all nodes with ``label`` in
    document (pre-order) order — the access-path shape every structural
    join algorithm assumes.
    """

    __slots__ = ("tree", "regions", "streams")

    def __init__(self, tree: LabeledTree) -> None:
        self.tree = tree
        self.regions: list[Region] = [None] * tree.size  # type: ignore[list-item]
        self.streams: dict[str, list[Region]] = {}
        self._encode()

    def _encode(self) -> None:
        tree = self.tree
        counter = 0
        # Iterative pre/post traversal assigning start on entry, end on exit.
        stack: list[tuple[int, int, bool]] = [(tree.root, 0, False)]
        starts: dict[int, int] = {}
        while stack:
            node, level, done = stack.pop()
            if done:
                # On exit, counter equals the largest start assigned in
                # this node's subtree — exactly the interval end.
                self.regions[node] = Region(starts[node], counter, level, node)
                continue
            counter += 1
            starts[node] = counter
            stack.append((node, level, True))
            for child in reversed(tree.children[node]):
                stack.append((child, level + 1, False))
        # counter holds the max start; 'end' above used the counter value
        # at exit time, which equals the max start in the subtree.
        for node in tree.preorder():
            self.streams.setdefault(tree.labels[node], []).append(
                self.regions[node]
            )

    def region(self, node: int) -> Region:
        return self.regions[node]

    def stream(self, label: str) -> list[Region]:
        """Document-order regions of all ``label`` nodes (empty if none)."""
        return self.streams.get(label, [])
