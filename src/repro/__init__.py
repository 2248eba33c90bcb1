"""TreeLattice: decomposition-based selectivity estimation for XML twig queries.

A full reproduction of *"A Decomposition-Based Probabilistic Framework
for Estimating the Selectivity of XML Twig Queries"* (Wang, Jin,
Parthasarathy; EDBT 2006): the lattice summary built by level-wise
frequent-tree mining, the recursive and fix-sized decomposition
estimators (with voting), δ-derivable pruning, the Markov path special
case, the TreeSketches comparator, dataset stand-ins, workload
generation, and the full experiment harness.

Quickstart::

    from repro import LabeledTree, TwigQuery, build_lattice
    from repro import RecursiveDecompositionEstimator, count_matches

    doc = LabeledTree.from_nested(
        ("site", [("people", [("person", ["name", "address"])])])
    )
    lattice = build_lattice(doc, level=3)
    estimator = RecursiveDecompositionEstimator(lattice, voting=True)
    query = TwigQuery.parse("/people/person[name][address]")
    print(estimator.estimate(query), count_matches(query.tree, doc))

See README.md for the architecture overview and DESIGN.md for the paper
mapping.
"""

from . import obs
from .baselines import CorrelatedPathTree, MarkovTable, PathTree, TreeSketch, XSketch
from .core import (
    ErrorProfile,
    EstimateInterval,
    Explanation,
    FixedDecompositionEstimator,
    LatticeSummary,
    MarkovPathEstimator,
    PruningReport,
    RecursiveDecompositionEstimator,
    SelectivityEstimator,
    StreamingSummary,
    WorkloadAwareLattice,
    build_lattice,
    explain,
    explanation_from_spans,
    first_leaf_pair_split,
    fixed_cover,
    leaf_pair_decompositions,
    prune_derivable,
    pruning_report,
)
from .trees.values import tree_from_xml_with_values, value_twig
from .trees.histograms import RangeHistogram, tree_from_xml_with_ranges
from .core.catalog import SummaryCatalog
from .trees.twigjoin import match_candidates
from .trees.twigstack import TwigStackJoin
from .datasets import generate_treebank
from .datasets import (
    DocumentGenerator,
    Schema,
    generate_dataset,
    generate_imdb,
    generate_nasa,
    generate_psd,
    generate_xmark,
)
from .mining import (
    MiningResult,
    mine_lattice,
    pattern_counts_by_level,
)
from .resilience import ChunkFailureError, RetryBudgetExhausted, RetryPolicy
from .store import (
    ArrayStore,
    ChecksumMismatch,
    DictStore,
    MergeError,
    StoreError,
    StorePayloadError,
    SummaryStore,
    TruncatedPayload,
    UnknownBackendError,
    UnsupportedVersion,
    make_store,
)
from .trees import (
    DocumentIndex,
    PatternInterner,
    PathJoin,
    enumerate_matches,
    LabeledTree,
    TreeBuildError,
    TwigParseError,
    TwigQuery,
    canon,
    count_matches,
    count_matches_descendant,
    decode_tree,
    encode_tree,
    tree_from_xml,
    tree_from_xml_file,
    tree_to_xml,
)
from .workload import (
    EstimatorEvaluation,
    QueryWorkload,
    absolute_relative_error,
    error_cdf,
    evaluate_estimator,
    negative_workload,
    positive_workloads,
    sanity_bound,
)

__version__ = "1.0.0"

__all__ = [
    # observability
    "obs",
    # trees
    "LabeledTree",
    "TreeBuildError",
    "TwigQuery",
    "TwigParseError",
    "DocumentIndex",
    "canon",
    "count_matches",
    "count_matches_descendant",
    "encode_tree",
    "decode_tree",
    "tree_from_xml",
    "tree_from_xml_file",
    "tree_to_xml",
    # mining
    "MiningResult",
    "mine_lattice",
    "pattern_counts_by_level",
    # store
    "SummaryStore",
    "DictStore",
    "ArrayStore",
    "make_store",
    "PatternInterner",
    "StoreError",
    "StorePayloadError",
    "TruncatedPayload",
    "ChecksumMismatch",
    "UnsupportedVersion",
    "UnknownBackendError",
    "MergeError",
    # resilience (policy surface; injection hooks stay in repro.resilience)
    "RetryPolicy",
    "ChunkFailureError",
    "RetryBudgetExhausted",
    # core
    "LatticeSummary",
    "build_lattice",
    "SelectivityEstimator",
    "RecursiveDecompositionEstimator",
    "FixedDecompositionEstimator",
    "MarkovPathEstimator",
    "leaf_pair_decompositions",
    "first_leaf_pair_split",
    "fixed_cover",
    "prune_derivable",
    "pruning_report",
    "PruningReport",
    "Explanation",
    "explain",
    "explanation_from_spans",
    "ErrorProfile",
    "EstimateInterval",
    "StreamingSummary",
    "tree_from_xml_with_values",
    "value_twig",
    "RangeHistogram",
    "tree_from_xml_with_ranges",
    "SummaryCatalog",
    "match_candidates",
    "TwigStackJoin",
    "generate_treebank",
    # baselines
    "TreeSketch",
    "MarkovTable",
    "PathTree",
    "CorrelatedPathTree",
    "XSketch",
    "WorkloadAwareLattice",
    "PathJoin",
    "enumerate_matches",
    # datasets
    "Schema",
    "DocumentGenerator",
    "generate_dataset",
    "generate_nasa",
    "generate_imdb",
    "generate_psd",
    "generate_xmark",
    # workload
    "QueryWorkload",
    "positive_workloads",
    "negative_workload",
    "EstimatorEvaluation",
    "evaluate_estimator",
    "absolute_relative_error",
    "error_cdf",
    "sanity_bound",
    "__version__",
]
