"""Summary catalog: manage lattice summaries for a set of documents.

The deployment surface a query optimizer actually talks to.  A
:class:`SummaryCatalog` owns a directory of persisted summaries, one per
registered document, and answers selectivity estimates by name:

* :meth:`register` — mine (or re-mine) a document into the catalog,
  optionally δ-pruned to fit a per-summary byte budget;
* :meth:`estimate` / :meth:`explain` — estimation against a registered
  summary, with the estimator family chosen per call;
* summaries persist via the lattice text format, so a catalog directory
  survives process restarts and can be shipped to the node that plans
  queries without shipping the documents.

This is deliberately thin glue — every capability is the core library's
— but it pins down the multi-document API (naming, persistence layout,
staleness) that downstream users otherwise each reinvent.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..trees.labeled_tree import LabeledTree
from ..trees.twig import TwigQuery
from .estimator import QueryLike, SelectivityEstimator
from .explain import Explanation, explain
from .fixed import FixedDecompositionEstimator
from .lattice import LatticeSummary
from .markov import MarkovPathEstimator
from .pruning import prune_derivable
from .recursive import RecursiveDecompositionEstimator

__all__ = ["SummaryCatalog", "CatalogError"]

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class CatalogError(KeyError):
    """Raised for unknown catalog entries or invalid names."""


class SummaryCatalog:
    """A named collection of lattice summaries backed by a directory.

    Parameters
    ----------
    directory:
        Where summaries are persisted (created if missing).  Pass
        ``None`` for a purely in-memory catalog.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._summaries: dict[str, LatticeSummary] = {}
        if self.directory is not None:
            for path in sorted(self.directory.glob("*.lattice")):
                self._summaries[path.stem] = LatticeSummary.load(path)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        document: LabeledTree,
        *,
        level: int = 4,
        budget_bytes: int | None = None,
        voting: bool = True,
    ) -> LatticeSummary:
        """Mine ``document`` and store its summary under ``name``.

        When ``budget_bytes`` is given and the full summary exceeds it,
        δ-derivable pruning is applied with increasing δ (0, then 5%
        steps) until the summary fits; the lossless δ=0 pass is always
        tried first.  Raises :class:`ValueError` when even heavy pruning
        cannot fit the budget.
        """
        self._check_name(name)
        summary = LatticeSummary.build(document, level)
        if budget_bytes is not None and summary.byte_size() > budget_bytes:
            summary = self._fit_to_budget(summary, budget_bytes, voting)
        self._summaries[name] = summary
        self._persist(name, summary)
        return summary

    @staticmethod
    def _fit_to_budget(
        summary: LatticeSummary, budget_bytes: int, voting: bool
    ) -> LatticeSummary:
        pruned = summary
        for delta in (0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50):
            pruned = prune_derivable(summary, delta, voting=voting)
            if pruned.byte_size() <= budget_bytes:
                return pruned
        raise ValueError(
            f"summary cannot be pruned into {budget_bytes} bytes "
            f"(delta=0.5 still needs {pruned.byte_size()})"
        )

    def publish(self, name: str, summary: LatticeSummary) -> None:
        """Store a pre-built summary under ``name`` (and persist it).

        The streaming-ingest path: a
        :class:`~repro.core.streaming.StreamingSummary` (or any other
        producer) snapshots its summary and publishes it here for
        planners to consume.
        """
        self._check_name(name)
        self._summaries[name] = summary
        self._persist(name, summary)

    def forget(self, name: str) -> None:
        """Remove a summary from the catalog (and its persisted file)."""
        self._require(name)
        del self._summaries[name]
        if self.directory is not None:
            path = self._path(name)
            if path.exists():
                path.unlink()

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------

    def estimate(
        self,
        name: str,
        query: TwigQuery | str,
        *,
        estimator: str = "voting",
    ) -> float:
        """Estimate a twig against the named summary.

        ``estimator`` ∈ {"recursive", "voting", "fixed", "markov"}.
        """
        return self._estimator(name, estimator).estimate(query)

    def estimate_count(
        self, name: str, query: TwigQuery | str, *, estimator: str = "voting"
    ) -> int:
        return self._estimator(name, estimator).estimate_count(query)

    def explain(
        self, name: str, query: QueryLike, *, voting: bool = True
    ) -> Explanation:
        """Decomposition trace of an estimate against the named summary."""
        return explain(self._require(name), query, voting=voting)

    def _estimator(self, name: str, kind: str) -> SelectivityEstimator:
        summary = self._require(name)
        if kind == "recursive":
            return RecursiveDecompositionEstimator(summary)
        if kind == "voting":
            return RecursiveDecompositionEstimator(summary, voting=True)
        if kind == "fixed":
            return FixedDecompositionEstimator(summary)
        if kind == "markov":
            return MarkovPathEstimator(summary)
        raise CatalogError(f"unknown estimator kind: {kind!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._summaries)

    def summary(self, name: str) -> LatticeSummary:
        return self._require(name)

    def __contains__(self, name: str) -> bool:
        return name in self._summaries

    def __len__(self) -> int:
        return len(self._summaries)

    def describe(self) -> list[dict[str, object]]:
        """One metadata row per entry (what a SHOW CATALOG would print)."""
        rows: list[dict[str, object]] = []
        for name in self.names():
            summary = self._summaries[name]
            rows.append(
                {
                    "name": name,
                    "level": summary.level,
                    "patterns": summary.num_patterns,
                    "bytes": summary.byte_size(),
                    "pruned": not summary.is_complete_at(summary.level),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _path(self, name: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{name}.lattice"

    def _persist(self, name: str, summary: LatticeSummary) -> None:
        if self.directory is not None:
            summary.save(self._path(name))

    def _require(self, name: str) -> LatticeSummary:
        got = self._summaries.get(name)
        if got is None:
            known = ", ".join(self.names()) or "(empty catalog)"
            raise CatalogError(f"no summary named {name!r}; known: {known}")
        return got

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise CatalogError(
                f"invalid catalog name {name!r} (use letters, digits, . _ -)"
            )

    def __repr__(self) -> str:
        return f"SummaryCatalog(entries={len(self)}, directory={self.directory})"
