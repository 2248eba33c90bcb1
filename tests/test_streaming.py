"""Streaming summary maintenance: exact deltas, bounded staleness.

Every insert/delete sequence must leave :meth:`StreamingSummary.count`
and a ``fresh=True`` snapshot equal to a from-scratch rebuild of the
current document — hypothesis drives random sequences against
:func:`~repro.mining.mine_lattice`.  Fixed tests pin the staleness
bound, compaction determinism, persistence, and the array backend.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import LabeledTree, LatticeSummary, StreamingSummary
from repro.core.streaming import DEFAULT_MAX_PENDING
from repro.datasets import generate_nasa
from repro.trees.labeled_tree import TreeBuildError

LABELS = "abcd"
LEVEL = 3

#: A nasa ``dataset`` record, inserted into a generated nasa document below.
NASA_RECORD = LabeledTree.from_nested(
    (
        "dataset",
        [
            "title",
            ("author", ["lastName", "firstName"]),
            ("date", ["year", "month", "day"]),
            "identifier",
        ],
    )
)


@st.composite
def random_record(draw, min_size=1, max_size=6, labels=LABELS):
    size = draw(st.integers(min_size, max_size))
    parent_choices = [draw(st.integers(0, i - 1)) for i in range(1, size)]
    node_labels = [draw(st.sampled_from(labels)) for _ in range(size)]
    tree = LabeledTree(node_labels[0])
    for i in range(1, size):
        tree.add_child(parent_choices[i - 1], node_labels[i])
    return tree


@st.composite
def update_script(draw):
    """A seed document plus a mixed insert/delete script."""
    seed = LabeledTree("r")
    ops = []
    live_records = draw(st.integers(0, 2))
    for _ in range(live_records):
        record = draw(random_record())
        _attach(seed, record)
    n_ops = draw(st.integers(1, 6))
    balance = live_records
    for _ in range(n_ops):
        if balance > 0 and draw(st.booleans()):
            ops.append(("delete", draw(st.integers(0, balance - 1))))
            balance -= 1
        else:
            ops.append(("insert", draw(random_record())))
            balance += 1
    return seed, ops


def _attach(document: LabeledTree, record: LabeledTree) -> None:
    # Grafting into the caller's document is this helper's entire job —
    # it mirrors what StreamingSummary.insert does internally.
    mapping = {
        record.root: document.add_child(  # lint: disable=twig-arg-mutation
            document.root, record.label(record.root)
        )
    }
    for node in record.preorder():
        if node == record.root:
            continue
        mapping[node] = document.add_child(  # lint: disable=twig-arg-mutation
            mapping[record.parent(node)], record.label(node)
        )


def rebuilt_counts(document: LabeledTree) -> dict:
    return dict(LatticeSummary.build(document, LEVEL).patterns())


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(script=update_script(), max_pending=st.integers(0, 3))
@example(  # the record's root label collides with the document root's
    script=(
        LabeledTree.from_nested(("db", ["x"])),
        [("insert", LabeledTree.from_nested(("db", ["y"])))],
    ),
    max_pending=0,
)
@example(  # duplicate record shapes: db(rec,rec) counts ordered pairs
    script=(
        LabeledTree.from_nested(("db", [("rec", ["a"])])),
        [("insert", LabeledTree.from_nested(("rec", ["a"])))] * 2,
    ),
    max_pending=0,
)
@example(  # db(x,y) is new: it occurs only as a match spanning the root
    script=(LabeledTree.from_nested(("db", ["x"])), [("insert", LabeledTree("y"))]),
    max_pending=0,
)
@example(  # a realistic record grafted onto a realistic document
    script=(generate_nasa(40, seed=7), [("insert", NASA_RECORD)]),
    max_pending=0,
)
def test_streaming_matches_rebuild_after_every_op(script, max_pending):
    seed, ops = script
    streaming = StreamingSummary(seed.copy(), LEVEL, max_pending=max_pending)
    for kind, arg in ops:
        if kind == "insert":
            streaming.insert(arg)
        else:
            streaming.delete(arg)
        want = rebuilt_counts(streaming.document)
        for pattern, count in want.items():
            assert streaming.count(pattern) == count
        snapshot = streaming.summary(fresh=True)
        assert dict(snapshot.patterns()) == want
        assert streaming.count(("zzz", ())) == 0


def test_deleted_patterns_vanish_from_snapshots():
    seed = LabeledTree("r")
    streaming = StreamingSummary(seed, LEVEL, max_pending=10)
    record = LabeledTree.from_nested(("a", [("b", []), ("b", [])]))
    streaming.insert(record)
    want = rebuilt_counts(streaming.document)
    assert streaming.count(("a", (("b", ()), ("b", ())))) == want[
        ("a", (("b", ()), ("b", ())))
    ]
    streaming.delete(0)
    snapshot = streaming.summary(fresh=True)
    assert dict(snapshot.patterns()) == {("r", ()): 1}
    assert streaming.count(("a", (("b", ()), ("b", ())))) == 0


def test_delete_returns_the_removed_record():
    seed = LabeledTree("r")
    streaming = StreamingSummary(seed, LEVEL)
    record = LabeledTree.from_nested(("a", [("b", [])]))
    streaming.insert(record)
    removed = streaming.delete(0)
    assert removed.isomorphic(record)


def test_delete_validates_the_index():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    with pytest.raises(TreeBuildError, match="root-child index"):
        streaming.delete(0)


def test_insert_rejects_empty_records():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    with pytest.raises(TreeBuildError):
        streaming.insert(LabeledTree("a").remove_nodes([0]))


# ----------------------------------------------------------------------
# Bounded staleness
# ----------------------------------------------------------------------


def test_pending_ops_never_exceed_the_bound():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=2)
    for i in range(7):
        streaming.insert(LabeledTree("a"))
        assert streaming.pending_ops <= 2
    assert streaming.updates == 7


def test_zero_staleness_compacts_every_update():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=0)
    streaming.insert(LabeledTree.from_nested(("a", [("b", [])])))
    assert streaming.pending_ops == 0
    # With no pending deltas the lazy snapshot is already exact.
    assert dict(streaming.summary().patterns()) == rebuilt_counts(
        streaming.document
    )


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError, match="max_pending"):
        StreamingSummary(LabeledTree("r"), LEVEL, max_pending=-1)


def test_stale_snapshot_lags_until_compaction():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=5)
    record = LabeledTree.from_nested(("a", [("b", [])]))
    streaming.insert(record)
    stale = streaming.summary()
    assert ("a", (("b", ()),)) not in dict(stale.patterns())
    assert streaming.count(("a", (("b", ()),))) == 1  # lookups are exact
    fresh = streaming.summary(fresh=True)
    assert dict(fresh.patterns())[("a", (("b", ()),))] == 1
    assert streaming.pending_ops == 0


def test_compaction_is_deterministic():
    def run() -> list:
        streaming = StreamingSummary(LabeledTree("r"), LEVEL, max_pending=10)
        streaming.insert(LabeledTree.from_nested(("a", [("b", [])])))
        streaming.insert(LabeledTree.from_nested(("c", [("a", [])])))
        streaming.delete(0)
        return list(streaming.summary(fresh=True).patterns())

    assert run() == run()


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_save_compacts_and_restore_resumes(tmp_path, backend):
    seed = LabeledTree("r")
    streaming = StreamingSummary(seed, LEVEL, store=backend, max_pending=10)
    streaming.insert(LabeledTree.from_nested(("a", [("b", [])])))
    path = tmp_path / "stream.tl"
    streaming.save(path)
    assert streaming.pending_ops == 0  # save always compacts

    restored = StreamingSummary.restore(
        path, streaming.document.copy(), max_pending=3
    )
    assert restored.level == LEVEL
    assert restored.max_pending == 3
    assert dict(restored.summary().patterns()) == dict(
        streaming.summary().patterns()
    )
    restored.insert(LabeledTree.from_nested(("c", [])))
    want = rebuilt_counts(restored.document)
    assert dict(restored.summary(fresh=True).patterns()) == want


def test_saved_file_matches_one_shot_summary(tmp_path):
    # Stream-building a document and one-shot mining it must persist to
    # byte-identical files (the text container sorts its keys).
    document = LabeledTree("r")
    records = [
        LabeledTree.from_nested(("a", [("b", []), ("c", [])])),
        LabeledTree.from_nested(("a", [("b", [("b", [])])])),
    ]
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    for record in records:
        _attach(document, record)
        streaming.insert(record)
    streamed_path = tmp_path / "streamed.tl"
    mined_path = tmp_path / "mined.tl"
    streaming.save(streamed_path)
    LatticeSummary.build(document, LEVEL).save(mined_path)
    assert streamed_path.read_bytes() == mined_path.read_bytes()


def test_restore_rejects_negative_bound(tmp_path):
    path = tmp_path / "s.tl"
    StreamingSummary(LabeledTree("r"), LEVEL).save(path)
    with pytest.raises(ValueError, match="max_pending"):
        StreamingSummary.restore(path, LabeledTree("r"), max_pending=-1)


def test_default_staleness_bound_is_exported():
    streaming = StreamingSummary(LabeledTree("r"), LEVEL)
    assert streaming.max_pending == DEFAULT_MAX_PENDING


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def test_array_backed_streaming_stays_exact():
    streaming = StreamingSummary(
        LabeledTree("r"), LEVEL, store="array", max_pending=1
    )
    for nested in [("a", [("b", [])]), ("a", [("b", []), ("b", [])])]:
        streaming.insert(LabeledTree.from_nested(nested))
    streaming.delete(0)
    snapshot = streaming.summary(fresh=True)
    assert snapshot.backend == "array"
    assert dict(snapshot.patterns()) == rebuilt_counts(streaming.document)
