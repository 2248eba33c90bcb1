"""Canonical forms for unordered labeled trees.

Twig matching ignores sibling order, so two trees that differ only in the
order of siblings denote the same pattern and must share one summary
entry.  The canonical form used throughout the library is a nested tuple

    canon = (label, (child_canon_1, ..., child_canon_m))

where the children canons are sorted.  Canon tuples are hashable and
compare cheaply, which makes them the natural dictionary key for the
lattice summary, the miner's count maps, and the estimators' memo tables.

The decomposition estimators and the miner work on canon tuples
directly: :func:`canon_removable_paths`, :func:`canon_without` and
:func:`canon_extensions` shrink and grow a key by one node, rebuilding
only the child tuples on the path to that node, so neither needs a
:class:`LabeledTree` per sub-twig or candidate.

For persistent storage and human-readable display there is a compact
string codec: ``a(b,c(d))`` encodes the tree rooted at ``a`` with leaf
child ``b`` and child ``c`` that has leaf child ``d``.  Characters that
collide with the syntax (``(``, ``)``, ``,`` and ``\\``) are
backslash-escaped, so arbitrary labels round-trip.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left
from typing import Callable, Collection, Mapping, Sequence

from .labeled_tree import LabeledTree, NestedSpec, TreeBuildError

__all__ = [
    "Canon",
    "CanonPath",
    "PatternInterner",
    "canon",
    "canon_of_subtree",
    "canon_label",
    "canon_children",
    "canon_size",
    "canon_from_nested",
    "canon_to_tree",
    "canon_removable_paths",
    "canon_without",
    "canon_extensions",
    "canon_decoder",
    "encode_canon",
    "decode_canon",
    "encode_tree",
    "decode_tree",
    "canonical_preorder",
]

#: A canonical encoding: ``(label, (child_canon, ...))`` with the child
#: canons sorted.  Treat values as opaque keys — the ``canon_*``
#: accessors below are the only supported way to look inside.
Canon = tuple[str, tuple["Canon", ...]]

#: A node of a canon named by the child indices leading to it from the
#: root; ``()`` is the root.  Node ``n`` of :func:`canon_to_tree` and its
#: path name the same node.
CanonPath = tuple[int, ...]

_ESCAPED = {"(", ")", ",", "\\"}

#: The error for sibling subtrees nested deeper than tuple comparison
#: can recurse: they cannot be put in canonical order.
_TOO_DEEP = "sibling subtrees nest too deeply to order"


def canon(tree: LabeledTree) -> Canon:
    """Canonical tuple of a whole tree."""
    return canon_of_subtree(tree, tree.root)


def canon_of_subtree(tree: LabeledTree, node: int) -> Canon:
    """Canonical tuple of the subtree of ``tree`` rooted at ``node``.

    Iterative post-order so arbitrarily deep documents (beyond Python's
    recursion limit) canonicalise fine.  Ordering siblings compares
    their canons, which recurses as deep as they are; siblings too deep
    to compare raise :class:`TreeBuildError`.
    """
    done: dict[int, Canon] = {}
    stack: list[tuple[int, bool]] = [(node, False)]
    try:
        while stack:
            current, expanded = stack.pop()
            kids = tree.child_ids(current)
            if not kids:
                done[current] = (tree.label(current), ())
                continue
            if expanded:
                done[current] = (
                    tree.label(current),
                    tuple(sorted(done[c] for c in kids)),
                )
            else:
                stack.append((current, True))
                stack.extend((c, False) for c in kids)
    except RecursionError:
        raise TreeBuildError(_TOO_DEEP) from None
    return done[node]


def canon_label(c: Canon) -> str:
    """Root label of a canon tuple."""
    return c[0]


def canon_children(c: Canon) -> tuple[Canon, ...]:
    """Child canon tuples (already sorted)."""
    return c[1]


def canon_size(c: Canon) -> int:
    """Number of nodes in the pattern a canon tuple denotes."""
    total = 1
    stack = list(c[1])
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node[1])
    return total


def canon_from_nested(spec: NestedSpec) -> Canon:
    """Canon tuple straight from a nested ``(label, [children])`` spec."""
    return canon(LabeledTree.from_nested(spec))


def canon_to_tree(c: Canon) -> LabeledTree:
    """Materialise a canon tuple as a :class:`LabeledTree`.

    Nodes are created in canonical pre-order, so ``canon(canon_to_tree(c))
    == c`` and node 0 is the root.  The fix-sized estimator covers every
    twig's instance built this way, so the node lists are filled
    directly.
    """
    tree = LabeledTree(c[0])
    labels, parents, children = tree.labels, tree.parents, tree.children
    stack = [(0, kid) for kid in reversed(c[1])]
    while stack:
        parent, (label, kids) = stack.pop()
        node = len(labels)
        labels.append(label)
        parents.append(parent)
        children.append([])
        children[parent].append(node)
        if kids:
            stack.extend([(node, grandkid) for grandkid in reversed(kids)])
    return tree


# ----------------------------------------------------------------------
# Growing and shrinking keys
# ----------------------------------------------------------------------


def canon_removable_paths(c: Canon) -> list[CanonPath]:
    """Paths of the nodes a leaf-pair decomposition may drop from ``c``.

    The nodes of ``canon_to_tree(c).removable_nodes()``, in that order:
    the root first when it has at most one child, then every leaf in
    canonical pre-order.  Iterative, so any depth works.
    """
    paths: list[CanonPath] = []
    kids = c[1]
    if len(kids) <= 1:
        paths.append(())
    stack: list[tuple[Canon, CanonPath]] = [
        (kids[i], (i,)) for i in range(len(kids) - 1, -1, -1)
    ]
    while stack:
        node, path = stack.pop()
        below = node[1]
        if below:
            stack.extend(
                (below[i], path + (i,)) for i in range(len(below) - 1, -1, -1)
            )
        else:
            paths.append(path)
    return paths


def _replace_kid(
    kids: tuple[Canon, ...], index: int, new: Canon
) -> tuple[Canon, ...]:
    """``kids`` with ``kids[index]`` replaced by ``new``, kept sorted."""
    rest = kids[:index] + kids[index + 1 :]
    at = bisect_left(rest, new)
    return rest[:at] + (new,) + rest[at:]


def _chain(c: Canon, path: CanonPath) -> list[Canon]:
    """The nodes from the root of ``c`` down to the node at ``path``."""
    chain = [c]
    for index in path:
        chain.append(chain[-1][1][index])
    return chain


def _splice(chain: list[Canon], path: CanonPath, node: Canon) -> Canon:
    """Put ``node`` in place of ``chain[-1]`` and rebuild up to the root.

    Only the child tuples on the path change; each is re-sorted, since
    the new child may order differently from the one it replaces.
    """
    for depth in range(len(chain) - 2, -1, -1):
        parent = chain[depth]
        node = (parent[0], _replace_kid(parent[1], path[depth], node))
    return node


def _drop_leaf(c: Canon, path: CanonPath) -> Canon:
    chain = _chain(c, path[:-1])
    label, kids = chain[-1]
    index = path[-1]
    # Dropping one member of a sorted tuple leaves it sorted.
    return _splice(chain, path, (label, kids[:index] + kids[index + 1 :]))


def canon_without(c: Canon, paths: Sequence[CanonPath]) -> Canon:
    """``c`` with one or two of its removable nodes dropped.

    ``paths`` come from :func:`canon_removable_paths`; the result equals
    ``canon(canon_to_tree(c).remove_nodes(nodes))``.  Dropping the root
    (``()``) promotes its only child.  Dropping a leaf rebuilds just the
    child tuples on its path, so every other sub-tuple of ``c`` is
    shared with the result.  Bounded by the key's depth.
    """
    if () in paths:
        if len(c[1]) != 1:
            raise TreeBuildError("only a root with one child can be dropped")
        c = c[1][0]
        paths = [path[1:] for path in paths if path]
    if not paths:
        return c
    if len(paths) == 1:
        return _drop_leaf(c, paths[0])
    first, second = paths
    # Two leaves: walk their shared prefix to the node where they fork.
    fork = 0
    while first[fork] == second[fork]:
        fork += 1
    chain = _chain(c, first[:fork])
    label, kids = chain[-1]
    a, b = first[fork], second[fork]
    kept = [kid for i, kid in enumerate(kids) if i != a and i != b]
    if len(first) == fork + 1 and len(second) == fork + 1:
        # Sibling leaves: what remains is still sorted.
        return _splice(chain, first, (label, tuple(kept)))
    if len(first) > fork + 1:
        kept.append(_drop_leaf(kids[a], first[fork + 1 :]))
    if len(second) > fork + 1:
        kept.append(_drop_leaf(kids[b], second[fork + 1 :]))
    kept.sort()
    return _splice(chain, first, (label, tuple(kept)))


def canon_extensions(
    c: Canon, child_labels: Mapping[str, Collection[str]]
) -> set[Canon]:
    """Every key one leaf larger than ``c``, as the miner grows candidates.

    A new leaf labelled ``x`` may hang under any node labelled ``p``
    with ``x in child_labels[p]`` (the document's observed parent/child
    label pairs, :attr:`DocumentIndex.child_labels`).  The result equals
    ``{canon(t.with_child(n, x))}`` over the nodes ``n`` of
    ``t = canon_to_tree(c)``.  Identical siblings yield identical
    extensions, so only the first of a run of equal child tuples is
    expanded.  Iterative, bounded by the key's depth per extension.
    """
    grown: set[Canon] = set()
    stack: list[tuple[list[Canon], CanonPath]] = [([c], ())]
    while stack:
        chain, path = stack.pop()
        label, kids = chain[-1]
        allowed = child_labels.get(label)
        if allowed:
            for new_label in allowed:
                leaf: Canon = (new_label, ())
                at = bisect_left(kids, leaf)
                grown_node = (label, kids[:at] + (leaf,) + kids[at:])
                grown.add(_splice(chain, path, grown_node))
        previous: Canon | None = None
        for index, kid in enumerate(kids):
            if kid != previous:
                stack.append((chain + [kid], path + (index,)))
                previous = kid
    return grown


def canonical_preorder(tree: LabeledTree) -> list[int]:
    """Node ids of ``tree`` in *canonical* pre-order.

    Children are visited in the order of their canonical encodings rather
    than insertion order, so isomorphic trees yield label sequences in the
    same order.  The fix-sized decomposition (paper Figure 5) uses this
    ordering so that covering an isomorphism class is deterministic.
    """
    # One iterative post-order pass computes every node's subtree canon.
    canon_memo: dict[int, Canon] = {}
    walk: list[tuple[int, bool]] = [(tree.root, False)]
    while walk:
        node, expanded = walk.pop()
        kids = tree.child_ids(node)
        if not kids:
            canon_memo[node] = (tree.label(node), ())
        elif expanded:
            canon_memo[node] = (
                tree.label(node),
                tuple(sorted(canon_memo[c] for c in kids)),
            )
        else:
            walk.append((node, True))
            walk.extend((c, False) for c in kids)

    order: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        kids = sorted(tree.child_ids(node), key=canon_memo.__getitem__)
        stack.extend(reversed(kids))
    return order


# ----------------------------------------------------------------------
# String codec
# ----------------------------------------------------------------------


def _escape(label: str) -> str:
    if any(ch in _ESCAPED for ch in label):
        out = []
        for ch in label:
            if ch in _ESCAPED:
                out.append("\\")
            out.append(ch)
        return "".join(out)
    return label


def encode_canon(c: Canon) -> str:
    """Encode a canon tuple as a compact string like ``a(b,c(d))``.

    Iterative over an explicit token stack, so depth is unbounded.
    """
    out: list[str] = []
    stack: list[Canon | str] = [c]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        label, kids = item
        out.append(_escape(label))
        if kids:
            tokens: list[Canon | str] = ["("]
            for i, kid in enumerate(kids):
                if i:
                    tokens.append(",")
                tokens.append(kid)
            tokens.append(")")
            stack.extend(reversed(tokens))
    return "".join(out)


def decode_canon(text: str) -> Canon:
    """Parse the string codec back into a canon tuple.

    The input need not list children in sorted order; the result is
    re-canonicalised, so ``decode_canon`` accepts any hand-written
    pattern string.  Iterative, so arbitrarily deep patterns parse;
    sibling subtrees too deep to order raise :class:`TreeBuildError`,
    as :func:`canon_of_subtree` does.
    """
    n = len(text)
    pos = 0
    open_labels: list[str] = []
    open_kids: list[list[Canon]] = []
    while True:
        label, pos = _scan_label(text, pos)
        if pos < n and text[pos] == "(":
            open_labels.append(label)
            open_kids.append([])
            pos += 1
            continue
        node: Canon = (label, ())
        while True:
            if pos >= n:
                if open_labels:
                    raise TreeBuildError("unterminated '(' in pattern string")
                return node
            ch = text[pos]
            if ch == ",":
                if not open_kids:
                    raise TreeBuildError(
                        f"trailing garbage at position {pos} in {text!r}"
                    )
                open_kids[-1].append(node)
                pos += 1
                break  # scan the next sibling's label
            if ch == ")":
                if not open_kids:
                    raise TreeBuildError(
                        f"trailing garbage at position {pos} in {text!r}"
                    )
                kids = open_kids.pop()
                kids.append(node)
                try:
                    kids.sort()
                except RecursionError:
                    raise TreeBuildError(_TOO_DEEP) from None
                node = (open_labels.pop(), tuple(kids))
                pos += 1
                continue
            raise TreeBuildError(f"unexpected {ch!r} at position {pos}")


def _scan_label(text: str, pos: int) -> tuple[str, int]:
    """Scan one (possibly escaped) label starting at ``pos``."""
    label_chars: list[str] = []
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\\":
            if pos + 1 >= n:
                raise TreeBuildError("dangling escape at end of pattern string")
            label_chars.append(text[pos + 1])
            pos += 2
            continue
        if ch in "(),":
            break
        label_chars.append(ch)
        pos += 1
    label = "".join(label_chars)
    if not label:
        raise TreeBuildError(f"empty label at position {pos} in {text!r}")
    return label, pos


#: Nesting depth past which :func:`canon_decoder` hands a key to
#: :func:`decode_canon`, so its recursion stays shallow.
_DECODER_DEPTH = 48

_SYNTAX = re.compile(r"[(),]")


def _top_level_parts(text: str, open_at: int) -> list[str] | None:
    """The child strings of ``label(...)``, or ``None`` when it is not.

    Splits the body at its commas and rejoins pieces until their
    parentheses balance, so the parts are split at the top-level
    commas.  Each part is decoded in turn, which rejects any malformed
    one; ``None`` here marks a bad label, a missing closing parenthesis
    or a body that never balances.
    """
    if open_at == 0 or text[-1] != ")" or _SYNTAX.search(text, 0, open_at):
        return None
    body = text[open_at + 1 : -1]
    if "(" not in body:
        return body.split(",")
    parts: list[str] = []
    group: list[str] = []
    depth = 0
    for piece in body.split(","):
        depth += piece.count("(") - piece.count(")")
        group.append(piece)
        if not depth:
            parts.append(group[0] if len(group) == 1 else ",".join(group))
            group = []
    return None if group else parts


def canon_decoder() -> Callable[[str], Canon]:
    """A :func:`decode_canon` with a memo, for the keys of one file.

    A summary's keys share most of their sub-patterns, so the returned
    function splits each key's children at its top-level commas,
    decodes each distinct child string once, and hands equal
    sub-patterns back as one shared tuple.  A string it cannot read
    plainly goes to :func:`decode_canon`: one holding a backslash, an
    empty or unbalanced part, or nesting deeper than a fixed bound.
    Escaped labels therefore decode exactly as before, and malformed
    strings, or sibling subtrees too deep to order, raise the same
    :class:`TreeBuildError` (for a malformed child, :func:`decode_canon`
    names the child rather than the key).
    """
    memo: dict[str, Canon] = {}

    def decode(text: str, depth: int = 0) -> Canon:
        found = memo.get(text)
        if found is not None:
            return found
        node: Canon
        open_at = text.find("(")
        if depth > _DECODER_DEPTH or "\\" in text:
            node = decode_canon(text)
        elif open_at < 0:
            plain = text and not _SYNTAX.search(text)
            node = (text, ()) if plain else decode_canon(text)
        else:
            parts = _top_level_parts(text, open_at)
            if parts is None:
                node = decode_canon(text)
            else:
                kids = [decode(part, depth + 1) for part in parts]
                try:
                    kids.sort()
                except RecursionError:
                    raise TreeBuildError(_TOO_DEEP) from None
                node = (text[:open_at], tuple(kids))
        memo[text] = node
        return node

    return decode


# ----------------------------------------------------------------------
# Pattern interning
# ----------------------------------------------------------------------

#: Array typecode for packed pattern codes: one (label_id, child_count)
#: pair per node, pre-order.  ``H`` (uint16) keeps codes at 4 bytes per
#: node; real XML vocabularies are far below the 65535-label ceiling.
_CODE_TYPECODE = "H"
_CODE_LIMIT = 0xFFFF

#: Footprint charged per interned id held in a lookup table (a small
#: CPython ``int`` object).
_PY_INT_BYTES = sys.getsizeof(1 << 16)


class PatternInterner:
    """Bijective ``Canon`` <-> dense integer id mapping.

    Labels are interned into their own dense id space; each pattern is
    packed once into a pre-order byte string of ``(label_id,
    child_count)`` pairs and assigned the next free id.  Ids are dense
    (``0 .. len(self) - 1``) in first-intern order, and
    ``canon_of(intern(c)) == c`` for every interned canon — the
    round-trip the :class:`~repro.store.ArrayStore` backend rests on.
    """

    __slots__ = ("_labels", "_label_ids", "_codes", "_code_ids")

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._codes: list[bytes] = []
        self._code_ids: dict[bytes, int] = {}

    # -- labels ---------------------------------------------------------

    def intern_label(self, label: str) -> int:
        """Dense id of ``label``, assigning the next free id if new."""
        got = self._label_ids.get(label)
        if got is None:
            got = len(self._labels)
            if got > _CODE_LIMIT:
                raise ValueError(
                    f"PatternInterner supports at most {_CODE_LIMIT + 1} "
                    "distinct labels"
                )
            self._labels.append(label)
            self._label_ids[label] = got
        return got

    def label_of(self, label_id: int) -> str:
        """Label for a previously assigned label id."""
        if not 0 <= label_id < len(self._labels):
            raise KeyError(f"unknown label id {label_id}")
        return self._labels[label_id]

    @property
    def num_labels(self) -> int:
        return len(self._labels)

    # -- patterns -------------------------------------------------------

    def intern(self, c: Canon) -> int:
        """Dense id of pattern ``c``, assigning the next free id if new."""
        code = self._encode(c)
        got = self._code_ids.get(code)
        if got is None:
            got = len(self._codes)
            self._codes.append(code)
            self._code_ids[code] = got
        return got

    def intern_code(self, code: bytes) -> int:
        """Dense id of a pre-encoded pattern code, assigning if new.

        The fast path for store merges: the caller already holds a
        :meth:`_encode`-format byte string whose label ids agree with
        this interner (foreign codes are remapped first — see
        :meth:`translate_code`), so interning skips the canon walk.
        Label ids inside the code are validated against the label table;
        an out-of-range id raises :class:`KeyError`.
        """
        got = self._code_ids.get(code)
        if got is not None:
            return got
        flat = array(_CODE_TYPECODE)
        flat.frombytes(code)
        limit = len(self._labels)
        for slot in range(0, len(flat), 2):
            if flat[slot] >= limit:
                raise KeyError(
                    f"pattern code names label id {flat[slot]} but this "
                    f"interner holds ids 0..{limit - 1}"
                )
        got = len(self._codes)
        self._codes.append(code)
        self._code_ids[code] = got
        return got

    @staticmethod
    def translate_code(code: bytes, label_map: Sequence[int]) -> bytes:
        """Rewrite a code's label ids through ``label_map`` (old -> new).

        Codes are flat ``(label_id, n_kids)`` pre-order pairs; only the
        even slots name labels, so translation is a positional rewrite
        that preserves the pattern's shape exactly.
        """
        flat = array(_CODE_TYPECODE)
        flat.frombytes(code)
        for slot in range(0, len(flat), 2):
            flat[slot] = label_map[flat[slot]]
        return flat.tobytes()

    def id_of(self, c: Canon) -> int | None:
        """Id of ``c`` if already interned, else ``None`` (no side effects)."""
        flat: list[int] = []
        stack: list[Canon] = [c]
        while stack:
            node = stack.pop()
            label_id = self._label_ids.get(canon_label(node))
            if label_id is None:
                return None  # unseen label: the pattern cannot be interned
            kids = canon_children(node)
            flat.append(label_id)
            flat.append(len(kids))
            stack.extend(reversed(kids))
        return self._code_ids.get(array(_CODE_TYPECODE, flat).tobytes())

    def canon_of(self, pattern_id: int) -> Canon:
        """The canon a dense id was assigned to (inverse of :meth:`intern`)."""
        if not 0 <= pattern_id < len(self._codes):
            raise KeyError(f"unknown pattern id {pattern_id}")
        return self._decode(self._codes[pattern_id])

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, c: Canon) -> bool:
        return self.id_of(c) is not None

    # -- codec ----------------------------------------------------------

    def _encode(self, c: Canon) -> bytes:
        flat: list[int] = []
        stack: list[Canon] = [c]
        while stack:
            node = stack.pop()
            kids = canon_children(node)
            n_kids = len(kids)
            if n_kids > _CODE_LIMIT:
                raise ValueError(
                    f"PatternInterner supports at most {_CODE_LIMIT} "
                    "children per node"
                )
            flat.append(self.intern_label(canon_label(node)))
            flat.append(n_kids)
            stack.extend(reversed(kids))
        return array(_CODE_TYPECODE, flat).tobytes()

    def _decode(self, code: bytes) -> Canon:
        tokens = array(_CODE_TYPECODE)
        tokens.frombytes(code)
        labels = self._labels
        # Open frames: (label, children collected so far, children expected).
        frames: list[tuple[str, list[Canon], int]] = []
        position = 0
        while True:
            label = labels[tokens[position]]
            n_kids = tokens[position + 1]
            position += 2
            if n_kids:
                frames.append((label, [], n_kids))
                continue
            node: Canon = (label, ())
            while frames:
                parent_label, kids, expected = frames[-1]
                kids.append(node)
                if len(kids) < expected:
                    break
                frames.pop()
                # Children were packed in canonical (sorted) order, so the
                # rebuilt tuple is already canonical.
                node = (parent_label, tuple(kids))
            else:
                return node

    # -- accounting and pickling ---------------------------------------

    def byte_size(self) -> int:
        """Actual footprint of the intern tables (codes, ids, labels)."""
        total = (
            sys.getsizeof(self._codes)
            + sys.getsizeof(self._code_ids)
            + sys.getsizeof(self._labels)
            + sys.getsizeof(self._label_ids)
        )
        for code in self._codes:
            total += sys.getsizeof(code)
        for label in self._labels:
            total += sys.getsizeof(label)
        # The id values held by the two lookup dicts.
        total += _PY_INT_BYTES * (len(self._codes) + len(self._labels))
        return total

    def __getstate__(self) -> tuple[list[str], list[bytes]]:
        # The reverse-lookup dicts are derived; rebuild them on load.
        return (self._labels, self._codes)

    def __setstate__(self, state: tuple[list[str], list[bytes]]) -> None:
        labels, codes = state
        self._labels = labels
        self._label_ids = {label: i for i, label in enumerate(labels)}
        self._codes = codes
        self._code_ids = {code: i for i, code in enumerate(codes)}

    @classmethod
    def from_tables(
        cls, labels: list[str], codes: list[bytes]
    ) -> "PatternInterner":
        """Rebuild an interner from its persisted label/code tables."""
        interner = cls()
        interner.__setstate__((labels, codes))
        return interner

    def tables(self) -> tuple[list[str], list[bytes]]:
        """The persistable label/code tables (copies)."""
        return (list(self._labels), list(self._codes))

    def __repr__(self) -> str:
        return (
            f"PatternInterner(patterns={len(self._codes)}, "
            f"labels={len(self._labels)})"
        )


def encode_tree(tree: LabeledTree) -> str:
    """Canonical string encoding of a tree (order-insensitive)."""
    return encode_canon(canon(tree))


def decode_tree(text: str) -> LabeledTree:
    """Parse a pattern string into a :class:`LabeledTree`."""
    return canon_to_tree(decode_canon(text))
