"""Merge laws: SummaryStore is a commutative monoid, both backends.

Streaming deltas and the ``repro merge`` CLI rest on three
laws, hypothesis-checked here over stores mined from random documents:

* **commutativity** — ``merge(a, b)`` and ``merge(b, a)`` hold the same
  count mapping (insertion order is self-first by documented contract,
  so order commutes only up to the mapping);
* **associativity** — ``merge(merge(a, b), c)`` equals
  ``merge(a, merge(b, c))`` *payload-for-payload*, order included;
* **identity** — merging with an empty store, on either side, returns a
  store payload-identical to the original, and a summary that
  round-trips through save/load byte-for-byte.

Merging never mutates an operand, and incompatible operands die in the
typed handshake (:class:`~repro.store.MergeError`) before any counting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import LabeledTree, LatticeSummary
from repro.mining.freqt import mine_lattice
from repro.store import ArrayStore, DictStore, MergeError, StoreError, coerce_store

LABELS = "abcd"
BACKENDS = ["dict", "array"]


@st.composite
def random_tree(draw, min_size=1, max_size=10, labels=LABELS):
    """Uniform-ish random labeled tree via random parent pointers."""
    size = draw(st.integers(min_size, max_size))
    parent_choices = [draw(st.integers(0, i - 1)) for i in range(1, size)]
    node_labels = [draw(st.sampled_from(labels)) for _ in range(size)]
    tree = LabeledTree(node_labels[0])
    for i in range(1, size):
        tree.add_child(parent_choices[i - 1], node_labels[i])
    return tree


def mined_store(tree: LabeledTree, backend: str, level: int = 3):
    store = DictStore()
    mine_lattice(tree, level, sink=store)
    return coerce_store(store, backend)


def counts_of(store) -> dict:
    return dict(store.items())


# ----------------------------------------------------------------------
# The monoid laws
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(a=random_tree(), b=random_tree())
def test_merge_is_commutative_on_counts(backend, a, b):
    sa, sb = mined_store(a, backend), mined_store(b, backend)
    assert counts_of(sa.merge(sb)) == counts_of(sb.merge(sa))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(a=random_tree(), b=random_tree(), c=random_tree())
def test_merge_is_associative_payload_for_payload(backend, a, b, c):
    sa = mined_store(a, backend)
    sb = mined_store(b, backend)
    sc = mined_store(c, backend)
    left = sa.merge(sb).merge(sc)
    right = sa.merge(sb.merge(sc))
    # Stronger than count equality: the serialised payload pins the
    # insertion order too (self's keys, then the other side's new keys).
    assert left.to_payload() == right.to_payload()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(tree=random_tree())
def test_empty_store_is_a_two_sided_identity(backend, tree):
    store = mined_store(tree, backend)
    empty = coerce_store(DictStore(), backend)
    assert store.merge(empty).to_payload() == store.to_payload()
    assert empty.merge(store).to_payload() == store.to_payload()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(a=random_tree(), b=random_tree())
def test_merge_adds_counts_and_never_mutates_operands(backend, a, b):
    sa, sb = mined_store(a, backend), mined_store(b, backend)
    before_a, before_b = sa.to_payload(), sb.to_payload()
    merged = sa.merge(sb)
    ca, cb, cm = counts_of(sa), counts_of(sb), counts_of(merged)
    assert set(cm) == set(ca) | set(cb)
    for key, count in cm.items():
        assert count == ca.get(key, 0) + cb.get(key, 0)
    assert sa.to_payload() == before_a
    assert sb.to_payload() == before_b


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(tree=random_tree(min_size=2))
def test_identity_survives_save_load_byte_for_byte(backend, tree, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("merge")
    plain = LatticeSummary.build(tree, 3, store=backend)
    merged = LatticeSummary(
        3,
        mined_store(tree, backend).merge(coerce_store(DictStore(), backend)),
        store=backend,
    )
    a, b = tmp_path / "plain.tl", tmp_path / "merged.tl"
    plain.save(a)
    merged.save(b)
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# Order contract
# ----------------------------------------------------------------------


def test_merge_order_is_self_then_new_keys():
    a = DictStore.from_counts([(("a", ()), 1), (("b", ()), 2)])
    b = DictStore.from_counts([(("c", ()), 5), (("a", ()), 7)])
    merged = a.merge(b)
    assert list(merged.items()) == [
        (("a", ()), 8),
        (("b", ()), 2),
        (("c", ()), 5),
    ]


def test_array_merge_translates_interner_ids():
    # Same patterns interned in different label order on each side: the
    # merge must remap ids, not add counts slot-by-slot.
    a = ArrayStore.from_counts([(("x", ()), 1), (("y", ()), 10)])
    b = ArrayStore.from_counts([(("y", ()), 100), (("x", ()), 1000)])
    merged = a.merge(b)
    assert counts_of(merged) == {("x", ()): 1001, ("y", ()): 110}


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_merge_rejects_non_stores(backend):
    store = coerce_store(DictStore(), backend)
    with pytest.raises(MergeError, match="cannot merge"):
        store.merge({("a", ()): 1})


def test_merge_rejects_backend_mismatch_with_guidance():
    with pytest.raises(MergeError, match="coerce_store"):
        DictStore().merge(ArrayStore())
    with pytest.raises(MergeError, match="coerce_store"):
        ArrayStore().merge(DictStore())


def test_merge_error_is_a_typed_store_error():
    assert issubclass(MergeError, StoreError)
    assert issubclass(MergeError, ValueError)


# ----------------------------------------------------------------------
# Summary-level merge
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(a=random_tree(min_size=2), b=random_tree(min_size=2))
def test_summary_merge_adds_counts_across_backends(a, b):
    sa = LatticeSummary.build(a, 3)
    sb = LatticeSummary.build(b, 3, store="array")
    merged = sa.merge(sb)
    da, db, dm = dict(sa.patterns()), dict(sb.patterns()), dict(merged.patterns())
    assert set(dm) == set(da) | set(db)
    for key, count in dm.items():
        assert count == da.get(key, 0) + db.get(key, 0)
    assert merged.backend == "dict"  # other side is coerced to self's


def test_summary_merge_rejects_level_mismatch():
    tree = LabeledTree.from_nested(("a", [("b", []), ("b", [("a", [])])]))
    s3 = LatticeSummary.build(tree, 3)
    s4 = LatticeSummary.build(tree, 4)
    with pytest.raises(MergeError, match="level-3.*level-4"):
        s3.merge(s4)
    with pytest.raises(MergeError, match="cannot merge a summary"):
        s3.merge("not a summary")


def test_summary_merge_intersects_complete_sizes_and_sums_seconds():
    tree = LabeledTree.from_nested(("a", [("b", []), ("b", [("a", [])])]))
    full = LatticeSummary.build(tree, 3)
    partial = LatticeSummary(
        3, dict(full.patterns()), complete_sizes=(1, 2), construction_seconds=1.5
    )
    merged = full.merge(partial)
    assert set(merged.complete_sizes) == {1, 2}
    assert merged.construction_seconds == pytest.approx(
        full.construction_seconds + 1.5
    )
