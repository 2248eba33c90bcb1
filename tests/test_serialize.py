"""Unit tests for XML serialisation."""

import pytest

from repro import LabeledTree, tree_from_xml, tree_from_xml_file, tree_to_xml
from repro.trees.serialize import (
    tree_from_element,
    tree_to_element,
    tree_to_xml_file,
    xml_byte_size,
)


SAMPLE = """
<computer>
  <laptops>
    <laptop><brand>X</brand><price>1</price></laptop>
    <laptop><brand>Y</brand><price>2</price></laptop>
  </laptops>
  <desktops/>
</computer>
"""


class TestParsing:
    def test_structure_only(self):
        tree = tree_from_xml(SAMPLE)
        assert tree.label(0) == "computer"
        assert tree.size == 9  # text content dropped
        assert tree.label_counts()["laptop"] == 2

    def test_values_dropped(self):
        tree = tree_from_xml("<a>hello<b>world</b></a>")
        assert tree.size == 2
        assert sorted(tree.labels) == ["a", "b"]

    def test_attributes_dropped_by_default(self):
        tree = tree_from_xml('<a x="1" y="2"><b/></a>')
        assert tree.size == 2

    def test_attributes_lifted_when_requested(self):
        tree = tree_from_xml('<a x="1"><b y="2"/></a>', include_attributes=True)
        assert tree.size == 4
        assert "@x" in tree.labels
        assert "@y" in tree.labels

    def test_namespaces_stripped(self):
        tree = tree_from_xml('<ns:a xmlns:ns="http://x"><ns:b/></ns:a>')
        assert tree.labels == ["a", "b"]

    def test_bytes_input(self):
        tree = tree_from_xml(b"<a><b/></a>")
        assert tree.size == 2

    def test_node_numbering(self):
        # Each element's attribute nodes, then its child elements, take
        # the next free ids when the element is reached (last child
        # first); namespaces are stripped from tags and attribute names.
        text = (
            '<ns:a xmlns:ns="http://x" id="1"><ns:b ns:k="v"><c/><ns:b/>'
            '</ns:b><c x="1" y="2"/></ns:a>'
        )
        plain = tree_from_xml(text)
        assert plain.labels == ["a", "b", "c", "c", "b"]
        assert plain.parents == [-1, 0, 0, 1, 1]
        lifted = tree_from_xml(text, include_attributes=True)
        assert lifted.labels == [
            "a", "@id", "b", "c", "@x", "@y", "@k", "c", "b"
        ]
        assert lifted.parents == [-1, 0, 0, 0, 3, 3, 2, 2, 2]
        assert lifted.children[0] == [1, 2, 3]


class TestRoundtrip:
    def test_tree_to_xml_roundtrip(self, figure1_doc):
        text = tree_to_xml(figure1_doc)
        again = tree_from_xml(text)
        assert again.isomorphic(figure1_doc)

    def test_attribute_roundtrip(self):
        tree = LabeledTree.from_nested(("a", ["@x", ("b", ["@y"])]))
        again = tree_from_xml(tree_to_xml(tree), include_attributes=True)
        assert again.isomorphic(tree)

    def test_element_conversion(self):
        tree = LabeledTree.from_nested(("a", ["b", "c"]))
        element = tree_to_element(tree)
        assert element.tag == "a"
        assert len(element) == 2
        assert tree_from_element(element).isomorphic(tree)


class TestFiles:
    def test_file_roundtrip(self, tmp_path, figure1_doc):
        path = tmp_path / "doc.xml"
        written = tree_to_xml_file(figure1_doc, path)
        assert written == path.stat().st_size
        again = tree_from_xml_file(path)
        assert again.isomorphic(figure1_doc)

    def test_file_attributes(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text('<a x="1"><b/><b y="2"/></a>')
        tree = tree_from_xml_file(path, include_attributes=True)
        assert sorted(tree.labels) == ["@x", "@y", "a", "b", "b"]

    def test_large_file_streams(self, tmp_path):
        path = tmp_path / "big.xml"
        body = "".join(f"<item><id/><name/></item>" for _ in range(2000))
        path.write_text(f"<root>{body}</root>")
        tree = tree_from_xml_file(path)
        assert tree.size == 1 + 3 * 2000

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xml"
        path.write_text("")
        with pytest.raises(Exception):
            tree_from_xml_file(path)


class TestByteSize:
    def test_byte_size_positive_and_consistent(self, figure1_doc):
        size = xml_byte_size(figure1_doc)
        assert size > 0
        bigger = figure1_doc.copy()
        bigger.add_child(0, "printers")
        assert xml_byte_size(bigger) > size
