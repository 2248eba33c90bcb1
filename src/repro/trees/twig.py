"""Twig queries.

A twig query is a small node-labeled tree matched against the document by
label- and edge-preserving injective mappings (Definition 1 of the
paper).  :class:`TwigQuery` wraps a :class:`~repro.trees.labeled_tree.LabeledTree`
and adds the query-facing conveniences: parsing from an XPath-like
syntax, canonical identity, and classification helpers the estimators
rely on (path detection for the Markov special case).

Two textual syntaxes are accepted:

* the library's canonical pattern codec, ``a(b,c(d))``
  (see :mod:`repro.trees.canonical`);
* an XPath subset with child axes and structural predicates::

      /site/people/person[name][address/city]

  Steps are separated by ``/``; each step may carry any number of
  ``[...]`` predicates, each of which is itself a relative twig in the
  same syntax.  Only structure is modelled — no value predicates, no
  ``//`` axis — matching the paper's scope.
"""

from __future__ import annotations

from typing import Iterable

from .canonical import (
    Canon,
    canon,
    canon_to_tree,
    decode_canon,
    encode_tree,
)
from .labeled_tree import LabeledTree, NestedSpec, TreeBuildError

__all__ = ["TwigQuery", "TwigParseError"]


class TwigParseError(ValueError):
    """Raised when twig query text cannot be parsed."""


class TwigQuery:
    """A structural twig query over an XML document."""

    __slots__ = ("tree", "_canon")

    def __init__(self, tree: LabeledTree) -> None:
        self.tree = tree
        self._canon: Canon | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_pattern(cls, text: str) -> "TwigQuery":
        """Parse the canonical pattern codec, e.g. ``a(b,c(d))``.

        Decoding already yields the canonical form, so the query starts
        with :meth:`canonical` answered.
        """
        try:
            key = decode_canon(text)
        except TreeBuildError as exc:
            raise TwigParseError(str(exc)) from exc
        query = cls(canon_to_tree(key))
        query._canon = key
        return query

    @classmethod
    def from_xpath(cls, text: str) -> "TwigQuery":
        """Parse an XPath-subset expression, e.g. ``/a/b[c][d/e]``."""
        text = text.strip()
        if text.startswith("//"):
            raise TwigParseError(
                "the descendant axis '//' is outside the paper's query model"
            )
        if text.startswith("/"):
            text = text[1:]
        if not text:
            raise TwigParseError("empty twig expression")
        spec, pos = _parse_steps(text, 0)
        if pos != len(text):
            raise TwigParseError(f"trailing garbage at position {pos} in {text!r}")
        return cls(LabeledTree.from_nested(spec))

    @classmethod
    def from_nested(cls, spec: NestedSpec) -> "TwigQuery":
        """Build from a nested ``(label, [children])`` spec."""
        return cls(LabeledTree.from_nested(spec))

    @classmethod
    def path(cls, labels: Iterable[str]) -> "TwigQuery":
        """A pure path query ``labels[0]/.../labels[-1]``."""
        return cls(LabeledTree.path(list(labels)))

    @classmethod
    def parse(cls, text: str) -> "TwigQuery":
        """Parse either syntax.

        Steps (``/``) or predicates (``[``) mark the XPath subset;
        everything else is the pattern codec.  Escaped characters in a
        codec label don't confuse the dispatch because ``/`` and ``[``
        are not codec metacharacters anyway — labels that legitimately
        contain them must go through :meth:`from_pattern` directly.
        """
        if "/" in text or "[" in text:
            return cls.from_xpath(text)
        return cls.from_pattern(text)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of query nodes."""
        return self.tree.size

    def canonical(self) -> Canon:
        """Canonical tuple identifying this query up to isomorphism.

        Computed once per query object and cached: the estimators key
        their compiled plans by it, so asking the same object again
        costs no tree walk.
        """
        if self._canon is None:
            self._canon = canon(self.tree)
        return self._canon

    def is_path(self) -> bool:
        """True when every node has at most one child (a linear path)."""
        return all(len(self.tree.child_ids(n)) <= 1 for n in range(self.tree.size))

    def path_labels(self) -> list[str]:
        """Root-to-leaf labels; raises unless :meth:`is_path`."""
        if not self.is_path():
            raise TreeBuildError("query is not a linear path")
        labels = []
        node = self.tree.root
        while True:
            labels.append(self.tree.label(node))
            kids = self.tree.child_ids(node)
            if not kids:
                return labels
            node = kids[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwigQuery):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"TwigQuery({encode_tree(self.tree)!r})"


# ----------------------------------------------------------------------
# XPath-subset parser
# ----------------------------------------------------------------------


def _parse_steps(text: str, pos: int) -> tuple[NestedSpec, int]:
    """Parse ``label[pred]*(/steps)?`` returning a nested spec."""
    label, pos = _parse_label(text, pos)
    children: list[NestedSpec] = []
    while pos < len(text) and text[pos] == "[":
        depth = 0
        start = pos + 1
        i = pos
        while i < len(text):
            if text[i] == "[":
                depth += 1
            elif text[i] == "]":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            raise TwigParseError(f"unbalanced '[' at position {pos} in {text!r}")
        inner = text[start:i].strip()
        if inner.startswith("/"):
            raise TwigParseError("predicates must be relative paths")
        if not inner:
            raise TwigParseError(f"empty predicate at position {pos}")
        spec, used = _parse_steps(inner, 0)
        if used != len(inner):
            raise TwigParseError(f"cannot parse predicate {inner!r}")
        children.append(spec)
        pos = i + 1
    if pos < len(text) and text[pos] == "/":
        child_spec, pos = _parse_steps(text, pos + 1)
        children.append(child_spec)
    return (label, children), pos


def _parse_label(text: str, pos: int) -> tuple[str, int]:
    start = pos
    while pos < len(text) and text[pos] not in "/[]":
        pos += 1
    label = text[start:pos].strip()
    if not label:
        raise TwigParseError(f"missing step label at position {start} in {text!r}")
    return label, pos
