"""XML serialisation for labeled trees.

The paper models an XML document as a rooted node-labeled tree, ignoring
values and IDREFs.  This module converts between that model and real XML
text: parsing keeps element tags and drops text content and attributes
(mirroring the paper's "we do not model value elements"), with an option
to lift attributes into child nodes for datasets where attributes carry
structure.

All functions work with :mod:`xml.etree.ElementTree` under the hood, so
any well-formed XML handled by the standard library round-trips.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from pathlib import Path

from .labeled_tree import LabeledTree

__all__ = [
    "tree_from_xml",
    "tree_from_xml_file",
    "tree_to_xml",
    "tree_to_xml_file",
    "tree_from_element",
    "tree_to_element",
    "xml_byte_size",
]


def _strip_namespace(tag: str) -> str:
    """Strip a ``{namespace}`` prefix, keeping the local element name."""
    if tag.startswith("{"):
        return tag.rpartition("}")[2]
    return tag


def tree_from_element(
    element: ET.Element, include_attributes: bool = False
) -> LabeledTree:
    """Convert an ElementTree element into a :class:`LabeledTree`.

    The node lists are filled directly: each element's attribute nodes,
    then its child elements, take the next free ids when the element
    is reached, and each distinct tag is stripped of its namespace once
    per conversion.

    Parameters
    ----------
    element:
        Root element of the parsed document.
    include_attributes:
        When true, every attribute ``name="value"`` becomes a child node
        labelled ``@name`` (the value is still dropped — the model is
        structural).
    """
    stripped: dict[str, str] = {}
    tree = LabeledTree(_strip_namespace(element.tag))
    labels, parents, children = tree.labels, tree.parents, tree.children
    stack = [(element, 0)]
    while stack:
        elem, node = stack.pop()
        kids = children[node]
        if include_attributes:
            for name in elem.attrib:
                kids.append(len(labels))
                labels.append("@" + _strip_namespace(name))
                parents.append(node)
                children.append([])
        for child in elem:
            tag = child.tag
            label = stripped.get(tag)
            if label is None:
                label = stripped[tag] = _strip_namespace(tag)
            child_node = len(labels)
            labels.append(label)
            parents.append(node)
            children.append([])
            kids.append(child_node)
            stack.append((child, child_node))
    return tree


def tree_from_xml(text: str | bytes, include_attributes: bool = False) -> LabeledTree:
    """Parse XML text into a :class:`LabeledTree`."""
    return tree_from_element(ET.fromstring(text), include_attributes)


def tree_from_xml_file(
    path: str | Path, include_attributes: bool = False
) -> LabeledTree:
    """Parse an XML file into a :class:`LabeledTree` (iterparse; low memory)."""
    # iterparse lets us discard completed elements immediately, which
    # matters for documents in the hundreds of megabytes.  "start"/"end"
    # events arrive in document order, so a stack of open node ids gives
    # each element its parent directly.
    tree: LabeledTree | None = None
    open_nodes: list[int] = []
    for event, elem in ET.iterparse(str(path), events=("start", "end")):
        if event == "start":
            tag = _strip_namespace(elem.tag)
            if tree is None:
                tree = LabeledTree(tag)
                node = 0
            else:
                node = tree.add_child(open_nodes[-1], tag)
            if include_attributes:
                for name in elem.attrib:
                    tree.add_child(node, "@" + _strip_namespace(name))
            open_nodes.append(node)
        else:
            open_nodes.pop()
            elem.clear()
    if tree is None:
        raise ValueError("empty XML document")
    return tree


def tree_to_element(tree: LabeledTree) -> ET.Element:
    """Convert a :class:`LabeledTree` back into an ElementTree element.

    Labels beginning with ``@`` become attributes (with empty values) on
    their parent, inverting ``include_attributes=True`` parsing.
    """
    root = ET.Element(tree.label(0))
    elems = {0: root}
    for node in tree.preorder():
        if node == 0:
            continue
        label = tree.label(node)
        parent_elem = elems[tree.parent(node)]
        if label.startswith("@"):
            parent_elem.set(label[1:], "")
        else:
            elems[node] = ET.SubElement(parent_elem, label)
    return root


def tree_to_xml(tree: LabeledTree) -> str:
    """Serialise a tree as XML text."""
    return ET.tostring(tree_to_element(tree), encoding="unicode")


def tree_to_xml_file(tree: LabeledTree, path: str | Path) -> int:
    """Write a tree as XML; returns the number of bytes written."""
    data = tree_to_xml(tree).encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)


def xml_byte_size(tree: LabeledTree) -> int:
    """Size in bytes of the tree's XML serialisation (Table 1 reporting)."""
    buf = io.BytesIO()
    ET.ElementTree(tree_to_element(tree)).write(buf, encoding="utf-8")
    return buf.tell()
