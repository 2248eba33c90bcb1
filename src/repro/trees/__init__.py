"""Tree substrate: labeled trees, canonical forms, twig queries, matching."""

from .labeled_tree import LabeledTree, TreeBuildError
from .canonical import (
    Canon,
    PatternInterner,
    canon,
    canon_children,
    canon_from_nested,
    canon_label,
    canon_of_subtree,
    canon_size,
    canon_to_tree,
    canonical_preorder,
    decode_canon,
    decode_tree,
    encode_canon,
    encode_tree,
)
from .matching import (
    DocumentIndex,
    count_matches,
    count_matches_descendant,
    count_rooted_matches,
    injective_assignment_count,
)
from .serialize import (
    tree_from_element,
    tree_from_xml,
    tree_from_xml_file,
    tree_to_element,
    tree_to_xml,
    tree_to_xml_file,
    xml_byte_size,
)
from .histograms import RangeHistogram, tree_from_xml_with_ranges
from .regions import Region, RegionIndex
from .twig import TwigParseError, TwigQuery
from .twigstack import TwigStackJoin, path_stack_solutions
from .twigjoin import (
    PathJoin,
    count_via_enumeration,
    enumerate_matches,
    match_candidates,
)

__all__ = [
    "LabeledTree",
    "TreeBuildError",
    "Canon",
    "PatternInterner",
    "canon",
    "canon_children",
    "canon_from_nested",
    "canon_label",
    "canon_of_subtree",
    "canon_size",
    "canon_to_tree",
    "canonical_preorder",
    "decode_canon",
    "decode_tree",
    "encode_canon",
    "encode_tree",
    "DocumentIndex",
    "count_matches",
    "count_matches_descendant",
    "count_rooted_matches",
    "injective_assignment_count",
    "tree_from_element",
    "tree_from_xml",
    "tree_from_xml_file",
    "tree_to_element",
    "tree_to_xml",
    "tree_to_xml_file",
    "xml_byte_size",
    "TwigParseError",
    "TwigQuery",
    "Region",
    "RegionIndex",
    "PathJoin",
    "count_via_enumeration",
    "enumerate_matches",
    "match_candidates",
    "TwigStackJoin",
    "path_stack_solutions",
    "RangeHistogram",
    "tree_from_xml_with_ranges",
]
