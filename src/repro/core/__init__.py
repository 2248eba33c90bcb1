"""TreeLattice core: lattice summary, decomposition estimators, pruning."""

from .catalog import CatalogError, SummaryCatalog
from .decompose import (
    CoverBlock,
    LeafPairSplit,
    first_leaf_pair_split,
    fixed_cover,
    leaf_pair_decompositions,
)
from .diagnostics import ErrorProfile, EstimateInterval
from .estimator import SelectivityEstimator, coerce_query_tree
from .explain import Explanation, explain, explanation_from_spans
from .fixed import FixedDecompositionEstimator
from .lattice import LatticeSummary, build_lattice
from .markov import MarkovPathEstimator
from .online import WorkloadAwareLattice
from .pruning import PruningReport, prune_derivable, pruning_report
from .recursive import RecursiveDecompositionEstimator
from .streaming import DEFAULT_MAX_PENDING, StreamingSummary

__all__ = [
    "CatalogError",
    "SummaryCatalog",
    "CoverBlock",
    "LeafPairSplit",
    "first_leaf_pair_split",
    "fixed_cover",
    "leaf_pair_decompositions",
    "ErrorProfile",
    "EstimateInterval",
    "SelectivityEstimator",
    "coerce_query_tree",
    "Explanation",
    "explain",
    "explanation_from_spans",
    "FixedDecompositionEstimator",
    "LatticeSummary",
    "build_lattice",
    "MarkovPathEstimator",
    "WorkloadAwareLattice",
    "PruningReport",
    "prune_derivable",
    "pruning_report",
    "RecursiveDecompositionEstimator",
    "StreamingSummary",
    "DEFAULT_MAX_PENDING",
]
