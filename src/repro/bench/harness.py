"""Experiment harness: dataset bundles shared across benchmarks.

A :class:`DatasetBundle` packages everything one paper experiment needs —
the generated document, its index, a TreeLattice summary with measured
construction time, a TreeSketch synopsis with measured construction time,
and lazily generated positive/negative workloads.  Bundles are cached per
(dataset, configuration) so a pytest session pays each construction once.

The sketch memory budget defaults to the paper's proportions: the paper
gave TreeSketches 50KB for documents of 150k-565k elements, i.e. roughly
0.2 bytes per element; :func:`sketch_budget_for` scales that to our
smaller synthetic corpora (floored at 2KB so tiny test documents still
produce a usable synopsis).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import obs
from ..baselines.treesketch import TreeSketch
from ..core.estimator import SelectivityEstimator
from ..core.fixed import FixedDecompositionEstimator
from ..core.lattice import LatticeSummary
from ..core.recursive import RecursiveDecompositionEstimator
from ..datasets import generate_dataset
from ..trees.labeled_tree import LabeledTree
from ..trees.matching import DocumentIndex
from ..workload.generator import (
    QueryWorkload,
    negative_workload,
    positive_workloads,
)

__all__ = ["DatasetBundle", "prepare_dataset", "sketch_budget_for", "PAPER_DATASETS"]

#: The paper's four evaluation datasets (Table 1 order).
PAPER_DATASETS = ("nasa", "imdb", "psd", "xmark")

#: Paper proportion: 50KB budget for ~250k elements average.
_BUDGET_BYTES_PER_ELEMENT = 0.2
_BUDGET_FLOOR = 2048


def sketch_budget_for(document: LabeledTree) -> int:
    """Paper-proportional TreeSketch budget for a document."""
    return max(_BUDGET_FLOOR, int(document.size * _BUDGET_BYTES_PER_ELEMENT))


@dataclass
class DatasetBundle:
    """One dataset with its summaries, timings, and cached workloads."""

    name: str
    document: LabeledTree
    index: DocumentIndex
    lattice: LatticeSummary
    sketch: TreeSketch
    lattice_seconds: float
    sketch_seconds: float
    seed: int = 0
    #: Observability snapshot of the lattice construction (per-level
    #: mining counters/timings); ``{}`` for bundles built before capture.
    build_metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    _positive: dict[tuple[tuple[int, ...], int, int], dict[int, QueryWorkload]] = field(
        default_factory=dict
    )
    _negative: dict[tuple[int, int, int], QueryWorkload] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------

    def estimators(
        self, *, include_sketch: bool = True
    ) -> list[SelectivityEstimator]:
        """The paper's four estimators over this bundle, in figure order."""
        out: list[SelectivityEstimator] = [
            RecursiveDecompositionEstimator(self.lattice),
            RecursiveDecompositionEstimator(self.lattice, voting=True),
            FixedDecompositionEstimator(self.lattice),
        ]
        if include_sketch:
            out.append(self.sketch)
        return out

    def mining_level_rows(self) -> list[list[object]]:
        """``[size, candidates, kept, gen_s, count_s, seconds]`` rows.

        Candidate-generation and counting wall time are separate spans
        (only counting parallelises; see ``docs/parallelism.md``).
        """
        candidates = self.build_metrics.get("mining_candidates_total", {})
        kept = self.build_metrics.get("mining_patterns_kept_total", {})
        generation = self.build_metrics.get("mining_candidate_seconds", {})
        counting = self.build_metrics.get("mining_counting_seconds", {})
        seconds = self.build_metrics.get("mining_level_seconds", {})
        rows: list[list[object]] = []
        for size in sorted(candidates, key=int):
            rows.append(
                [
                    int(size),
                    candidates.get(size, 0),
                    kept.get(size, 0),
                    generation.get(size, 0.0),
                    counting.get(size, 0.0),
                    seconds.get(size, 0.0),
                ]
            )
        return rows

    # ------------------------------------------------------------------
    # Workloads (cached)
    # ------------------------------------------------------------------

    def positive(
        self,
        sizes: range | list[int],
        per_level: int = 25,
        *,
        extend_cap: int = 600,
    ) -> dict[int, QueryWorkload]:
        key = (tuple(sizes), per_level, extend_cap)
        cached = self._positive.get(key)
        if cached is None:
            cached = positive_workloads(
                self.index,
                sizes,
                per_level,
                seed=self.seed + 1,
                extend_cap=extend_cap,
            )
            self._positive[key] = cached
        return cached

    def negative(
        self,
        size: int,
        per_level: int = 25,
        *,
        extend_cap: int = 600,
    ) -> QueryWorkload:
        key = (size, per_level, extend_cap)
        cached = self._negative.get(key)
        if cached is None:
            base = self.positive([size], per_level, extend_cap=extend_cap)[size]
            cached = negative_workload(self.index, base, seed=self.seed + 2)
            self._negative[key] = cached
        return cached


def _samples_by_size(registry: obs.MetricsRegistry, name: str) -> dict[str, float]:
    """Flatten a ``size``-labelled metric to ``{size: value}``."""
    metric = registry.get(name)
    if not isinstance(metric, (obs.Counter, obs.Gauge)):
        return {}
    return {labels["size"]: value for labels, value in metric.samples()}


_BUNDLES: dict[
    tuple[str, int | None, int, int, int | None, int], DatasetBundle
] = {}


def prepare_dataset(
    name: str,
    *,
    scale: int | None = None,
    seed: int = 0,
    level: int = 4,
    sketch_budget: int | None = None,
    refinement_rounds: int = 8,
    use_cache: bool = True,
) -> DatasetBundle:
    """Build (or fetch from cache) the bundle for one dataset.

    Parameters mirror the experiment knobs: ``scale`` the dataset size,
    ``level`` the lattice level (paper default 4), and ``sketch_budget``
    the TreeSketch byte budget (paper-proportional when ``None``).
    """
    key = (name, scale, seed, level, sketch_budget, refinement_rounds)
    if use_cache:
        cached = _BUNDLES.get(key)
        if cached is not None:
            return cached

    document = generate_dataset(name, scale, seed=seed)
    index = DocumentIndex(document)

    start = time.perf_counter()
    with obs.observed() as (registry, _):
        lattice = LatticeSummary.build(index, level)
    lattice_seconds = time.perf_counter() - start
    build_metrics = {
        metric: _samples_by_size(registry, metric)
        for metric in (
            "mining_candidates_total",
            "mining_patterns_kept_total",
            "mining_candidate_seconds",
            "mining_counting_seconds",
            "mining_level_seconds",
        )
    }

    budget = sketch_budget if sketch_budget is not None else sketch_budget_for(document)
    start = time.perf_counter()
    sketch = TreeSketch.build(
        document, budget, refinement_rounds=refinement_rounds
    )
    sketch_seconds = time.perf_counter() - start

    bundle = DatasetBundle(
        name=name,
        document=document,
        index=index,
        lattice=lattice,
        sketch=sketch,
        lattice_seconds=lattice_seconds,
        sketch_seconds=sketch_seconds,
        seed=seed,
        build_metrics=build_metrics,
    )
    if use_cache:
        _BUNDLES[key] = bundle
    return bundle
