"""Workload-aware on-line summary maintenance (XPathLearner-style).

The paper's third future-work item (§6): "adapt TreeLattice, in a manner
similar to XPathLearner, where information learned from an on-line
workload can guide what is to be maintained in the summary structure."

:class:`WorkloadAwareLattice` implements that design point:

* it starts from only the cheap, always-complete levels 1-2 of the
  lattice (label counts and parent-child edge counts — one document
  pass);
* every answered query feeds back its *true* count via
  :meth:`observe` (query processors know it after execution for free),
  and the pattern is added to the store;
* the store lives under a byte budget: when full, the patterns with the
  lowest utility (hits per byte, halved on every eviction sweep so
  stale entries age out) are dropped — levels 1-2 are never evicted;
* estimation decomposes recursively through whatever is currently
  stored, so accuracy on the *observed* workload converges toward the
  full lattice's while memory tracks the working set instead of the
  whole pattern space.
"""

from __future__ import annotations

from .. import obs
from ..mining.freqt import mine_lattice
from ..store.dict_store import DictStore
from ..trees.canonical import Canon, canon_size, encode_canon
from ..trees.labeled_tree import LabeledTree
from .estimator import KeyedEstimator, QueryLike, query_key
from .lattice import LatticeSummary
from .recursive import RecursiveDecompositionEstimator

__all__ = ["WorkloadAwareLattice"]

_COUNT_BYTES = 8


class WorkloadAwareLattice(KeyedEstimator):
    """An on-line, feedback-driven lattice summary under a byte budget.

    Parameters
    ----------
    document:
        The document; only its levels 1-2 statistics are read up front.
    level:
        Maximum pattern size accepted from feedback (the usual ``k``).
    budget_bytes:
        Cap on the stored statistics (base levels included).
    voting:
        Whether estimation averages over all decompositions.
    """

    name = "workload-aware lattice"

    def __init__(
        self,
        document: LabeledTree,
        level: int = 4,
        *,
        budget_bytes: int = 64 * 1024,
        voting: bool = False,
    ) -> None:
        if level < 2:
            raise ValueError("level must be >= 2")
        self.level = level
        self.budget_bytes = budget_bytes
        self.voting = voting
        base = mine_lattice(document, 2).all_patterns()
        self._base: dict[Canon, int] = dict(base)
        self._learned: dict[Canon, int] = {}
        self._hits: dict[Canon, float] = {}
        self.observations = 0
        self.evictions = 0
        self._view: LatticeSummary | None = None
        base_bytes = self._bytes_of(self._base)
        if base_bytes > budget_bytes:
            raise ValueError(
                f"budget {budget_bytes} cannot hold the base statistics "
                f"({base_bytes} bytes)"
            )

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------

    def observe(self, query: QueryLike, true_count: int) -> bool:
        """Feed back the true count of an executed query.

        Returns True when the pattern was stored (within the level cap).
        """
        if true_count < 0:
            raise ValueError("true_count must be non-negative")
        key = query_key(query)
        size = canon_size(key)
        self.observations += 1
        if size > self.level or size <= 2:
            # Too large to store; too small to need storing.
            if obs.enabled:
                self._record_observation(size, stored=False)
            return False
        self._learned[key] = true_count
        self._hits[key] = self._hits.get(key, 0.0) + 1.0
        self._view = None
        self._enforce_budget()
        if obs.enabled:
            self._record_observation(size, stored=True)
        return True

    def _record_observation(self, size: int, *, stored: bool) -> None:
        if not obs.enabled:  # call sites check too; this is defence in depth
            return
        obs.registry.counter(
            "online_observations_total",
            "Query feedback observations by storage outcome.",
            labels=("stored",),
        ).inc(stored="yes" if stored else "no")
        obs.registry.histogram(
            "online_observed_pattern_size",
            "Pattern sizes arriving via query feedback.",
        ).observe(size)
        obs.registry.gauge(
            "online_learned_patterns", "Patterns currently learned from feedback."
        ).set(len(self._learned))
        obs.registry.gauge(
            "online_bytes", "Bytes held by the workload-aware store."
        ).set(self.byte_size())
        obs.event(
            "online_observe",
            size=size,
            stored=stored,
            learned=len(self._learned),
            evictions=self.evictions,
        )

    def _enforce_budget(self) -> None:
        while (
            self._bytes_of(self._base) + self._bytes_of(self._learned)
            > self.budget_bytes
            and self._learned
        ):
            # Drop the lowest-utility learned pattern; age the rest.
            # The canon itself breaks utility ties, so eviction order
            # never depends on dict insertion order.
            victim = min(
                self._learned,
                key=lambda c: (
                    self._hits.get(c, 0.0) / (len(encode_canon(c)) + _COUNT_BYTES),
                    c,
                ),
            )
            del self._learned[victim]
            self._hits.pop(victim, None)
            self.evictions += 1
            if obs.enabled:
                obs.registry.counter(
                    "online_evictions_total",
                    "Learned patterns evicted to stay under budget.",
                ).inc()
            for key in self._hits:
                self._hits[key] *= 0.5
            self._view = None

    @staticmethod
    def _bytes_of(counts: dict[Canon, int]) -> int:
        return sum(
            len(encode_canon(c).encode("utf-8")) + _COUNT_BYTES for c in counts
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def _estimate_key(self, key: Canon) -> float:
        estimator = RecursiveDecompositionEstimator(
            self._summary(), voting=self.voting
        )
        # Count a hit for every learned pattern the estimate touches:
        # approximate by crediting the query pattern itself when stored.
        if key in self._learned:
            self._hits[key] = self._hits.get(key, 0.0) + 1.0
        return estimator._estimate_key(key)

    def _summary(self) -> LatticeSummary:
        if self._view is None:
            # Base (sizes 1-2) and learned (sizes 3..level) are disjoint
            # by construction, so the monoid's count-add is an overlay.
            merged = DictStore.from_counts(self._base).merge(
                DictStore.from_counts(self._learned)
            )
            self._view = LatticeSummary(
                self.level, merged, complete_sizes=(1, 2)
            )
        return self._view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def learned_patterns(self) -> int:
        return len(self._learned)

    def byte_size(self) -> int:
        return self._bytes_of(self._base) + self._bytes_of(self._learned)

    def knows(self, query: QueryLike) -> bool:
        """True when the exact pattern is currently stored."""
        return query_key(query) in self._learned

    def __repr__(self) -> str:
        return (
            f"WorkloadAwareLattice(level={self.level}, "
            f"learned={self.learned_patterns}, bytes={self.byte_size()}, "
            f"budget={self.budget_bytes})"
        )
