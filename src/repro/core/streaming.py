"""Streaming summary maintenance: insert/delete deltas as monoid merges.

The paper notes (§2.2, §6) that TreeLattice "by design is also
incremental in nature and can maintain summaries on-line", in the spirit
of XPathLearner, but does not evaluate it.  This module maintains a
summary exactly under the dominant update pattern of record-style XML:
**inserting or deleting a record subtree under the document root** (a
new auction, a retracted protein entry, a new movie).

Correctness argument.  A twig match image is connected (every query edge
maps to a document edge), so after grafting record ``R`` under root
``r`` every match falls into exactly one of three disjoint classes:

1. *old-only* — entirely inside the old document: already counted;
2. *record-only* — entirely inside ``R``'s nodes: counted by mining the
   record in isolation (its internal structure is unchanged by the
   graft);
3. *spanning* — uses nodes on both sides, hence contains the edge
   ``r -> root(R)``, hence contains ``r``; and since ``r`` has no
   parent, the query node mapped to ``r`` must be the query root.  So
   every spanning match is **anchored at the document root**, and the
   class-3 contribution is the change in root-anchored pattern counts
   (:func:`~repro.mining.freqt.anchored_counts`).

An insert therefore adds the record's mined counts plus the change in
root-anchored counts; a delete runs the same argument backward.  The
result is bit-exact with a full rebuild — asserted against
:func:`~repro.mining.freqt.mine_lattice` in the test suite.

The summary is a **base** :class:`~repro.core.lattice.LatticeSummary`
plus a **pending** :class:`~repro.store.DictStore` of *signed* deltas:
every :meth:`~StreamingSummary.insert` / :meth:`~StreamingSummary.delete`
folds its exact count delta into the pending store with one monoid
merge (:meth:`~repro.store.SummaryStore.merge`).

Bounded staleness contract
--------------------------
Point lookups (:meth:`~StreamingSummary.count`) are always exact: they
read base + pending.  The materialised :meth:`~StreamingSummary.summary`
snapshot may lag behind by at most ``max_pending`` update operations;
once the pending store has absorbed that many, the next update
compacts automatically (``max_pending=0`` compacts after every update,
i.e. no staleness).  :meth:`~StreamingSummary.summary` with
``fresh=True`` forces a compaction first, and
:meth:`~StreamingSummary.save` always compacts, so persisted summaries
never carry pending deltas — :meth:`~StreamingSummary.restore` reads
the standard versioned summary container straight back.
"""

from __future__ import annotations

import time
from pathlib import Path

from .. import obs
from ..mining.freqt import anchored_counts, mine_lattice
from ..store.dict_store import DictStore
from ..trees.canonical import Canon
from ..trees.labeled_tree import LabeledTree, TreeBuildError
from ..trees.matching import DocumentIndex
from .lattice import LatticeSummary

__all__ = ["StreamingSummary", "DEFAULT_MAX_PENDING"]

#: Default staleness bound: pending update operations tolerated before a
#: summary snapshot is recompacted.
DEFAULT_MAX_PENDING = 64


class StreamingSummary:
    """A lattice summary maintained under record inserts *and* deletes.

    Parameters
    ----------
    document:
        The evolving document.  The maintainer takes ownership: mutate
        it only through :meth:`insert` / :meth:`delete` (a delete
        renumbers node ids, so hold on to root-child *positions*, not
        ids).
    level:
        Lattice level ``k``.
    store:
        Backend of the base summary (``"dict"`` / ``"array"``).
    max_pending:
        Staleness bound — see the module docstring.
    """

    def __init__(
        self,
        document: LabeledTree,
        level: int,
        *,
        store: str = "dict",
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self._document = document
        self.level = level
        self.max_pending = max_pending
        base = LatticeSummary.build(document, level, store=store)
        if set(base.complete_sizes) != set(range(1, level + 1)):
            # The miner stops at the first empty level and only marks
            # mined levels complete; an empty level makes every deeper
            # level vacuously complete, and exact maintenance preserves
            # completeness, so assert the full range up front.
            base = base.replace_counts(
                dict(base.patterns()), complete_sizes=range(1, level + 1)
            )
        self._base = base
        self._pending = DictStore()
        self._pending_ops = 0
        self._updates = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def document(self) -> LabeledTree:
        return self._document

    @property
    def pending_ops(self) -> int:
        """Update operations folded into the pending store since the
        last compaction (the snapshot's current staleness)."""
        return self._pending_ops

    @property
    def updates(self) -> int:
        """Total inserts + deletes applied since construction."""
        return self._updates

    def count(self, pattern: Canon) -> int:
        """Current exact count of ``pattern`` — never stale (0 if absent)."""
        base = self._base.get(pattern) or 0
        return base + (self._pending.get(pattern) or 0)

    def summary(self, *, fresh: bool = False) -> LatticeSummary:
        """The materialised summary snapshot.

        Stale by at most ``max_pending`` update operations;
        ``fresh=True`` compacts first and is therefore always exact.
        """
        if fresh and self._pending_ops:
            self.compact()
        return self._base

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, record: LabeledTree) -> None:
        """Append ``record`` under the document root; stage its delta.

        The record is copied — the caller's tree is not retained.
        """
        if record.size < 1:
            raise TreeBuildError("cannot insert an empty record")
        started = time.perf_counter()
        before = self._root_anchored()
        _graft(self._document, self._document.root, record)
        delta: dict[Canon, int] = dict(
            mine_lattice(record, self.level).all_patterns()
        )
        self._span_delta(delta, before, sign=1)
        self._apply_delta(delta)
        if obs.enabled:
            self._record_update("insert", record.size, started)

    def delete(self, child_index: int) -> LabeledTree:
        """Remove the ``child_index``-th record under the root; stage its delta.

        The index counts the document root's children left to right
        (the order :meth:`insert` appends in).  Returns a copy of the
        removed record.  Node ids of the remaining document are
        renumbered.
        """
        document = self._document
        children = document.child_ids(document.root)
        if not 0 <= child_index < len(children):
            raise TreeBuildError(
                f"no record at root-child index {child_index} "
                f"(root has {len(children)} children)"
            )
        started = time.perf_counter()
        node = children[child_index]
        record = document.subtree_at(node)
        before = self._root_anchored()
        drop = [node]
        stack = [node]
        while stack:
            for child in document.child_ids(stack.pop()):
                drop.append(child)
                stack.append(child)
        self._document = document.remove_nodes(drop)
        delta = {
            pattern: -count
            for pattern, count in mine_lattice(
                record, self.level
            ).all_patterns().items()
        }
        self._span_delta(delta, before, sign=1)
        self._apply_delta(delta)
        if obs.enabled:
            self._record_update("delete", record.size, started)
        return record

    def compact(self) -> LatticeSummary:
        """Fold the pending deltas into the base summary.

        One monoid application: base counts plus pending deltas, with
        patterns whose count reaches zero dropped.  Order is
        deterministic — the base's insertion order, then pending-only
        patterns in the order their first delta arrived — so compacting
        the same update sequence always yields byte-identical snapshots.
        """
        if self._pending_ops:
            counts: dict[Canon, int] = dict(self._base.patterns())
            for pattern, delta in self._pending.items():
                counts[pattern] = counts.get(pattern, 0) + delta
            self._base = self._base.replace_counts(
                {c: n for c, n in counts.items() if n > 0},
                complete_sizes=self._base.complete_sizes,
            )
            self._pending = DictStore()
            self._pending_ops = 0
            if obs.enabled:
                obs.registry.counter(
                    "streaming_compactions_total",
                    "Pending-delta compactions since process start.",
                ).inc()
        return self._base

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Compact, then persist via :meth:`LatticeSummary.save`.

        The file is the standard versioned summary container — pending
        deltas never reach disk.
        """
        self.compact().save(path)

    @classmethod
    def restore(
        cls,
        path: str | Path,
        document: LabeledTree,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> "StreamingSummary":
        """Resume streaming from a saved summary of ``document``.

        The caller asserts that ``document`` is the tree the summary at
        ``path`` was saved for (the container stores counts, not the
        document); updates applied after restore are exact under that
        assumption.
        """
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        base = LatticeSummary.load(path)
        self = cls.__new__(cls)
        self._document = document
        self.level = base.level
        self.max_pending = max_pending
        self._base = base
        self._pending = DictStore()
        self._pending_ops = 0
        self._updates = 0
        return self

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _root_anchored(self) -> dict[Canon, int]:
        document = self._document
        return anchored_counts(
            DocumentIndex(document), (document.root,), self.level
        )

    def _span_delta(
        self, delta: dict[Canon, int], before: dict[Canon, int], *, sign: int
    ) -> None:
        """Add the spanning-match (class 3) delta against ``before``."""
        after = self._root_anchored()
        for pattern in after.keys() | before.keys():
            change = after.get(pattern, 0) - before.get(pattern, 0)
            if change:
                delta[pattern] = delta.get(pattern, 0) + sign * change

    def _apply_delta(self, delta: dict[Canon, int]) -> None:
        """Fold one update's signed delta into the pending store."""
        step = DictStore.from_counts(
            (pattern, change) for pattern, change in delta.items() if change
        )
        self._pending = self._pending.merge(step)
        self._pending_ops += 1
        self._updates += 1
        if self._pending_ops > self.max_pending:
            self.compact()

    def _record_update(self, kind: str, record_size: int, started: float) -> None:
        if not obs.enabled:  # call sites check too; this is defence in depth
            return
        elapsed = time.perf_counter() - started
        obs.registry.counter(
            "streaming_updates_total",
            "Streaming record updates by kind.",
            labels=("kind",),
        ).inc(kind=kind)
        obs.registry.gauge(
            "streaming_pending_ops",
            "Update deltas pending since the last compaction.",
        ).set(self._pending_ops)
        obs.registry.timer(
            "streaming_update_seconds", "Wall time per streaming update."
        ).observe(elapsed)
        obs.event(
            "streaming_update",
            kind=kind,
            record_size=record_size,
            pending_ops=self._pending_ops,
            document_nodes=self._document.size,
            seconds=round(elapsed, 6),
        )


def _graft(document: LabeledTree, parent: int, record: LabeledTree) -> int:
    """Copy ``record`` as a new child subtree of ``parent``.

    Returns the document id of the copied record root.
    """
    mapping = {
        record.root: document.add_child(parent, record.label(record.root))  # lint: disable=twig-arg-mutation -- grafting IS this helper's job
    }
    for node in record.preorder():
        if node == record.root:
            continue
        mapping[node] = document.add_child(  # lint: disable=twig-arg-mutation -- see above
            mapping[record.parent(node)], record.label(node)
        )
    return mapping[record.root]
