"""Property tests for canonical forms: the string codec and key surgery.

The codec is the lattice summary's persistence format and its dictionary
key space at the text layer, so two properties are load-bearing:

* **round-trip**: ``encode_canon(decode_canon(e)) == e`` for any encoding
  produced by the codec itself (save/load cycles are lossless);
* **injectivity**: distinct canons encode to distinct strings (two
  different patterns can never collide in a summary file).

Random trees include awkward labels containing the codec's own
metacharacters ``( ) , \\`` to exercise the escaping.  The per-file
decoder (:func:`canon_decoder`) must agree with :func:`decode_canon` on
every string, well-formed or not.

The key primitives the estimators and the miner work with are pinned to
the tree operations they replace: removable paths to
``removable_nodes()``, dropping nodes to ``remove_node(s)`` and growth
to ``with_child``, each compared through :func:`canon`.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro import LabeledTree, TreeBuildError, canon
from repro.trees.canonical import (
    canon_decoder,
    canon_extensions,
    canon_removable_paths,
    canon_to_tree,
    canon_without,
    decode_canon,
    encode_canon,
)

# Labels deliberately include the codec's metacharacters.  Empty labels
# are excluded: the codec rejects them by design (labels are XML element
# names, which are never empty).
LABELS = ("a", "b", "cd", "(", ")", ",", "\\", "x(y", "p\\q")


@st.composite
def random_canon(draw, max_size=10):
    """Canon of a random labeled tree over codec-hostile labels."""
    size = draw(st.integers(1, max_size))
    labels = [draw(st.sampled_from(LABELS)) for _ in range(size)]
    tree = LabeledTree(labels[0])
    for i in range(1, size):
        parent = draw(st.integers(0, i - 1))
        tree.add_child(parent, labels[i])
    return canon(tree)


@settings(max_examples=300)
@given(random_canon())
def test_encode_decode_round_trip(c):
    assert decode_canon(encode_canon(c)) == c


@settings(max_examples=300)
@given(random_canon())
def test_encoding_round_trips_as_text(c):
    encoded = encode_canon(c)
    assert encode_canon(decode_canon(encoded)) == encoded


@settings(max_examples=200)
@given(random_canon(), random_canon())
def test_encoding_is_injective(c1, c2):
    if c1 != c2:
        assert encode_canon(c1) != encode_canon(c2)
    else:
        assert encode_canon(c1) == encode_canon(c2)


# ----------------------------------------------------------------------
# Key primitives against the tree route
# ----------------------------------------------------------------------

# Few labels, so random trees hold identical siblings and sub-patterns.
SHAPE_LABELS = ("a", "b", "c")


@st.composite
def random_tree(draw, labels=SHAPE_LABELS, max_size=9):
    size = draw(st.integers(1, max_size))
    tree = LabeledTree(draw(st.sampled_from(labels)))
    for i in range(1, size):
        tree.add_child(draw(st.integers(0, i - 1)), draw(st.sampled_from(labels)))
    return tree


def _node_at(tree, path):
    node = tree.root
    for index in path:
        node = tree.child_ids(node)[index]
    return node


@settings(max_examples=300)
@given(random_tree())
def test_removable_paths_name_removable_nodes_in_order(tree):
    key = canon(tree)
    instance = canon_to_tree(key)
    paths = canon_removable_paths(key)
    assert [_node_at(instance, p) for p in paths] == instance.removable_nodes()


@settings(max_examples=300)
@given(random_tree())
def test_dropping_one_node_matches_remove_node(tree):
    key = canon(tree)
    instance = canon_to_tree(key)
    if instance.size < 2:
        return
    for path in canon_removable_paths(key):
        node = _node_at(instance, path)
        assert canon_without(key, (path,)) == canon(instance.remove_node(node))


@settings(max_examples=300)
@given(random_tree())
def test_dropping_two_nodes_matches_remove_nodes(tree):
    key = canon(tree)
    instance = canon_to_tree(key)
    if instance.size < 3:
        return
    for p, q in combinations(canon_removable_paths(key), 2):
        pair = (_node_at(instance, p), _node_at(instance, q))
        assert canon_without(key, (p, q)) == canon(instance.remove_nodes(pair))


@settings(max_examples=300)
@given(
    random_tree(),
    st.dictionaries(
        st.sampled_from(SHAPE_LABELS), st.sets(st.sampled_from(SHAPE_LABELS))
    ),
)
def test_extensions_match_with_child(tree, child_labels):
    key = canon(tree)
    instance = canon_to_tree(key)
    expected = {
        canon(instance.with_child(node, label))
        for node in range(instance.size)
        for label in child_labels.get(instance.label(node), ())
    }
    assert canon_extensions(key, child_labels) == expected


# ----------------------------------------------------------------------
# The per-file decoder against decode_canon
# ----------------------------------------------------------------------


def _spell(tree):
    """A tree's pattern string with children in insertion order."""

    def escaped(label):
        return "".join("\\" + ch if ch in "(),\\" else ch for ch in label)

    def spell(node):
        kids = tree.child_ids(node)
        body = escaped(tree.label(node))
        if kids:
            body += "(" + ",".join(spell(kid) for kid in kids) + ")"
        return body

    return spell(tree.root)


def _outcome(decode, text):
    try:
        return decode(text)
    except Exception as exc:  # the type is what must agree
        return type(exc)


@settings(max_examples=300)
@given(st.lists(random_tree(labels=LABELS + SHAPE_LABELS), min_size=1, max_size=6))
def test_decoder_matches_decode_canon(trees):
    decode = canon_decoder()  # one memo across the whole "file"
    for tree in trees:
        for text in (_spell(tree), encode_canon(canon(tree))):
            assert decode(text) == decode_canon(text) == canon(tree)


MALFORMED = ("", "a(", "a()", "a(b,)", "(b)", "a(b))", "a((b))", "a(b)c", "a,b", "b)")


def test_decoder_rejects_malformed_like_decode_canon():
    for text in MALFORMED:
        assert _outcome(decode_canon, text) is TreeBuildError
        assert _outcome(canon_decoder(), text) is TreeBuildError


@settings(max_examples=500)
@given(st.text(alphabet="ab(),\\", max_size=12))
def test_decoder_agrees_on_arbitrary_text(text):
    assert _outcome(canon_decoder(), text) == _outcome(decode_canon, text)


def test_decoder_hands_deep_nesting_to_decode_canon():
    # Deeper than the interpreter's recursion limit; compared as text,
    # since comparing such tuples directly recurses.
    text = "a(" * 3000 + "b" + ")" * 3000
    assert encode_canon(canon_decoder()(text)) == text


def _deep_siblings(depth):
    """``r`` over two chains ``depth`` deep, differing only in their leaves."""
    left = "a(" * depth + "b" + ")" * depth
    right = "a(" * depth + "c" + ")" * depth
    return f"r({left},{right})"


def _chain_tuple(depth, leaf):
    node = (leaf, ())
    for _ in range(depth):
        node = ("a", (node,))
    return node


def test_siblings_too_deep_to_order_fail_typed():
    # Ordering siblings compares their tuples, which recurses as deep as
    # they nest.  Where this interpreter cannot compare them, decoding
    # and canonicalising must fail as TreeBuildError, never with a
    # RecursionError; where it can, they must succeed.
    depth = 3000
    text = _deep_siblings(depth)
    tree = LabeledTree("r")
    for leaf in ("b", "c"):
        node = tree.add_child(0, "a")
        for _ in range(depth - 1):
            node = tree.add_child(node, "a")
        tree.add_child(node, leaf)
    try:
        comparable = _chain_tuple(depth, "b") < _chain_tuple(depth, "c")
    except RecursionError:
        comparable = False
    for decode in (decode_canon, canon_decoder(), lambda _: canon(tree)):
        if comparable:
            assert encode_canon(decode(text)) == text
        else:
            with pytest.raises(TreeBuildError, match="too deeply"):
                decode(text)

