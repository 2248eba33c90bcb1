"""Store layer tests: interner bijectivity, backend parity, persistence.

The two summary-store backends must be observationally identical —
``dict`` vs ``array`` is a space/layout trade-off, never a semantics
one.  The headline properties here are hypothesis-checked:

* ``PatternInterner`` is a bijection between canons and dense ids on
  every document it has interned;
* every estimator produces **bit-identical** floats on a dict-backed and
  an array-backed summary of the same document, cold and warm (compiled
  plans replay the exact float operations of the first evaluation).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FixedDecompositionEstimator,
    LabeledTree,
    LatticeSummary,
    MarkovPathEstimator,
    RecursiveDecompositionEstimator,
    obs,
    prune_derivable,
)
from repro.mining.freqt import mine_lattice
from repro.store import ArrayStore, DictStore, coerce_store, make_store
from repro.trees.canonical import PatternInterner, canon

LABELS = "abcd"


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


# ----------------------------------------------------------------------
# PatternInterner
# ----------------------------------------------------------------------


class TestPatternInterner:
    def test_ids_are_dense_in_intern_order(self):
        interner = PatternInterner()
        first = interner.intern(("a", ()))
        second = interner.intern(("b", (("a", ()),)))
        assert (first, second) == (0, 1)
        assert interner.intern(("a", ())) == 0  # re-intern is stable
        assert len(interner) == 2

    def test_round_trip(self):
        interner = PatternInterner()
        pattern = ("a", (("b", (("a", ()),)), ("b", ())))
        assert interner.canon_of(interner.intern(pattern)) == pattern

    def test_id_of_has_no_side_effects(self):
        interner = PatternInterner()
        assert interner.id_of(("a", ())) is None
        assert len(interner) == 0
        assert interner.num_labels == 0
        pattern_id = interner.intern(("a", ()))
        assert interner.id_of(("a", ())) == pattern_id
        # A pattern over seen labels that was never interned itself.
        assert interner.id_of(("a", (("a", ()),))) is None

    def test_contains(self):
        interner = PatternInterner()
        interner.intern(("a", ()))
        assert ("a", ()) in interner
        assert ("b", ()) not in interner

    def test_unknown_ids_raise(self):
        interner = PatternInterner()
        with pytest.raises(KeyError):
            interner.canon_of(0)
        with pytest.raises(KeyError):
            interner.label_of(3)

    def test_label_interning(self):
        interner = PatternInterner()
        assert interner.intern_label("x") == 0
        assert interner.intern_label("y") == 1
        assert interner.intern_label("x") == 0
        assert interner.label_of(1) == "y"
        assert interner.num_labels == 2

    def test_wide_node_beyond_code_limit_rejected(self):
        interner = PatternInterner()
        too_wide = ("r", tuple(("a", ()) for _ in range(0x10000)))
        with pytest.raises(ValueError, match="children per node"):
            interner.intern(too_wide)

    def test_pickle_round_trip(self):
        interner = PatternInterner()
        patterns = [("a", ()), ("b", (("a", ()), ("c", ()))), ("c", ())]
        ids = [interner.intern(p) for p in patterns]
        clone = pickle.loads(pickle.dumps(interner))
        assert [clone.id_of(p) for p in patterns] == ids
        assert [clone.canon_of(i) for i in ids] == patterns
        assert clone.intern(("d", ())) == len(patterns)  # tables still grow

    def test_byte_size_grows_with_contents(self):
        interner = PatternInterner()
        empty = interner.byte_size()
        interner.intern(("a", (("b", ()),)))
        assert interner.byte_size() > empty

    @settings(max_examples=50, deadline=None)
    @given(doc=random_tree(min_size=2, max_size=12))
    def test_bijective_over_mined_patterns(self, doc):
        """intern/canon_of round-trip every pattern of a random document."""
        mined = mine_lattice(doc, 3)
        interner = PatternInterner()
        ids = {}
        for pattern, _count in mined.all_patterns().items():
            ids[pattern] = interner.intern(pattern)
        assert sorted(ids.values()) == list(range(len(ids)))  # dense
        for pattern, pattern_id in ids.items():
            assert interner.canon_of(pattern_id) == pattern
            assert interner.id_of(pattern) == pattern_id


# ----------------------------------------------------------------------
# Store backends
# ----------------------------------------------------------------------


PATTERNS = [
    (("a", ()), 7),
    (("b", (("a", ()),)), 3),
    (("c", (("a", ()), ("b", ()))), 1),
]


@pytest.mark.parametrize("backend", ["dict", "array"])
class TestStoreBackends:
    def test_add_get_contains_len(self, backend):
        store = make_store(backend)
        for key, count in PATTERNS:
            store.add(key, count)
        assert len(store) == 3
        for key, count in PATTERNS:
            assert store.get(key) == count
            assert key in store
        assert store.get(("zzz", ())) is None
        assert ("zzz", ()) not in store

    def test_items_preserve_insertion_order(self, backend):
        store = make_store(backend)
        for key, count in PATTERNS:
            store.add(key, count)
        assert list(store.items()) == PATTERNS

    def test_add_overwrites(self, backend):
        store = make_store(backend)
        store.add(("a", ()), 1)
        store.add(("a", ()), 9)
        assert store.get(("a", ())) == 9
        assert len(store) == 1

    def test_from_counts(self, backend):
        store_cls = type(make_store(backend))
        store = store_cls.from_counts(dict(PATTERNS))
        assert list(store.items()) == PATTERNS

    def test_byte_size_positive_and_grows(self, backend):
        store = make_store(backend)
        empty = store.byte_size()
        for key, count in PATTERNS:
            store.add(key, count)
        assert store.byte_size() > empty > 0

    def test_pickle_round_trip(self, backend):
        store = make_store(backend)
        for key, count in PATTERNS:
            store.add(key, count)
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone.items()) == PATTERNS
        assert clone.backend == backend


class TestStoreRegistry:
    def test_make_store_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown summary store backend"):
            make_store("sqlite")

    def test_coerce_store_passes_matching_store_through(self):
        store = DictStore.from_counts(dict(PATTERNS))
        assert coerce_store(store) is store
        assert coerce_store(store, "dict") is store

    def test_coerce_store_converts_between_backends(self):
        store = DictStore.from_counts(dict(PATTERNS))
        converted = coerce_store(store, "array")
        assert isinstance(converted, ArrayStore)
        assert list(converted.items()) == PATTERNS

    def test_coerce_store_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown summary store backend"):
            coerce_store(dict(PATTERNS), "sqlite")


class TestArrayStoreCompaction:
    def test_array_store_is_much_smaller_than_dict(self, small_nasa_lattice):
        dict_store = DictStore.from_counts(dict(small_nasa_lattice.patterns()))
        array_store = ArrayStore.from_counts(dict(small_nasa_lattice.patterns()))
        # The serving-scale gate: interned packed codes must cost at most
        # half of the tuple-keyed hash table on a realistic summary.
        assert array_store.byte_size() <= 0.5 * dict_store.byte_size()

    def test_payload_version_mismatch_rejected(self):
        store = ArrayStore.from_counts(dict(PATTERNS))
        payload = store.to_payload()
        payload["payload_version"] = 99
        with pytest.raises(ValueError, match="payload version"):
            ArrayStore.from_payload(payload)

    def test_payload_survives_foreign_byteorder(self):
        import sys
        from array import array

        store = ArrayStore.from_counts(dict(PATTERNS))
        payload = store.to_payload()
        # Forge a payload as a machine of the opposite endianness would
        # have written it; loading must byteswap back.
        other = "big" if sys.byteorder == "little" else "little"
        swapped_counts = array("q")
        swapped_counts.frombytes(payload["counts"])
        swapped_counts.byteswap()
        swapped_codes = []
        for code in payload["codes"]:
            buffer = array("H")
            buffer.frombytes(code)
            buffer.byteswap()
            swapped_codes.append(buffer.tobytes())
        from repro.store.array_store import _checksum_parts
        from repro.store.integrity import payload_checksum

        foreign = dict(
            payload,
            byteorder=other,
            counts=swapped_counts.tobytes(),
            codes=swapped_codes,
            # The foreign writer checksums *its* byte stream; the reader
            # verifies before byteswapping back.
            crc32=payload_checksum(
                _checksum_parts(
                    other,
                    payload["labels"],
                    swapped_codes,
                    swapped_counts.tobytes(),
                )
            ),
        )
        assert list(ArrayStore.from_payload(foreign).items()) == PATTERNS


# ----------------------------------------------------------------------
# LatticeSummary over both backends
# ----------------------------------------------------------------------


class TestSummaryBackends:
    def test_build_backends_bit_identical(self, figure1_doc):
        dict_summary = LatticeSummary.build(figure1_doc, 4)
        array_summary = LatticeSummary.build(figure1_doc, 4, store="array")
        assert dict_summary.backend == "dict"
        assert array_summary.backend == "array"
        assert list(dict_summary.patterns()) == list(array_summary.patterns())
        assert dict_summary.complete_sizes == array_summary.complete_sizes
        assert dict_summary.level_sizes() == array_summary.level_sizes()

    def test_mining_sink_matches_from_mining(self, figure1_doc):
        mined = mine_lattice(figure1_doc, 3)
        sink = make_store("array")
        mine_lattice(figure1_doc, 3, sink=sink)
        merged = LatticeSummary.from_mining(mined)
        assert list(sink.items()) == list(merged.patterns())

    def test_to_store_converts_and_preserves_metadata(self, figure1_lattice):
        converted = figure1_lattice.to_store("array")
        assert converted.backend == "array"
        assert converted.level == figure1_lattice.level
        assert converted.complete_sizes == figure1_lattice.complete_sizes
        assert list(converted.patterns()) == list(figure1_lattice.patterns())
        assert converted.to_store("array") is converted

    def test_byte_size_reports_backend_footprint(self, figure1_doc):
        dict_summary = LatticeSummary.build(figure1_doc, 4)
        array_summary = dict_summary.to_store("array")
        assert array_summary.byte_size() < dict_summary.byte_size()

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_pruned_roundtrip_preserves_complete_sizes(
        self, tmp_path, figure1_doc, backend
    ):
        summary = LatticeSummary.build(figure1_doc, 4, store=backend)
        pruned = prune_derivable(summary, 0.0)
        assert pruned.complete_sizes == frozenset({1, 2})
        path = tmp_path / f"pruned.{backend}.lattice"
        pruned.save(path)
        loaded = LatticeSummary.load(path)
        assert loaded.complete_sizes == frozenset({1, 2})
        assert loaded.level == pruned.level
        assert dict(loaded.patterns()) == dict(pruned.patterns())

    def test_array_roundtrip_is_binary_and_exact(self, tmp_path, figure1_doc):
        summary = LatticeSummary.build(figure1_doc, 4, store="array")
        path = tmp_path / "summary.lattice"
        summary.save(path)
        assert path.read_bytes().startswith(b"#treelattice-bin\x00")
        loaded = LatticeSummary.load(path)
        assert loaded.backend == "array"
        assert list(loaded.patterns()) == list(summary.patterns())
        assert loaded.complete_sizes == summary.complete_sizes

    def test_text_format_carries_version(self, tmp_path, figure1_lattice):
        path = tmp_path / "summary.lattice"
        figure1_lattice.save(path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("#treelattice v=2 ")

    def test_legacy_text_without_version_loads(self, tmp_path, figure1_lattice):
        path = tmp_path / "summary.lattice"
        figure1_lattice.save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("v=2 ", "", 1), encoding="utf-8")
        loaded = LatticeSummary.load(path)
        assert dict(loaded.patterns()) == dict(figure1_lattice.patterns())

    def test_newer_text_version_rejected(self, tmp_path, figure1_lattice):
        path = tmp_path / "summary.lattice"
        figure1_lattice.save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("v=2 ", "v=99 ", 1), encoding="utf-8")
        with pytest.raises(ValueError, match="version 99"):
            LatticeSummary.load(path)

    def test_corrupt_binary_rejected(self, tmp_path):
        path = tmp_path / "summary.lattice"
        path.write_bytes(b"#treelattice-bin\x00not a pickle")
        with pytest.raises(ValueError, match="corrupt"):
            LatticeSummary.load(path)

    def test_binary_version_mismatch_rejected(self, tmp_path, figure1_doc):
        summary = LatticeSummary.build(figure1_doc, 3, store="array")
        path = tmp_path / "summary.lattice"
        summary.save(path)
        raw = path.read_bytes()
        magic = b"#treelattice-bin\x00"
        payload = pickle.loads(raw[len(magic):])
        payload["version"] = 99
        path.write_bytes(magic + pickle.dumps(payload))
        with pytest.raises(ValueError, match="version 99"):
            LatticeSummary.load(path)


# ----------------------------------------------------------------------
# Backend parity: estimates are bit-identical, cold and warm
# ----------------------------------------------------------------------


def _estimators(summary):
    return [
        RecursiveDecompositionEstimator(summary),
        RecursiveDecompositionEstimator(summary, voting=True),
        FixedDecompositionEstimator(summary),
    ]


class TestBackendParity:
    @settings(max_examples=25, deadline=None)
    @given(
        doc=random_tree(min_size=3, max_size=10),
        queries=st.lists(random_tree(min_size=1, max_size=7), min_size=1, max_size=4),
    )
    def test_estimates_bit_identical_across_backends(self, doc, queries):
        """dict- and array-backed summaries agree exactly, cold and warm."""
        dict_summary = LatticeSummary.build(doc, 3)
        array_summary = LatticeSummary.build(doc, 3, store="array")
        for dict_estimator, array_estimator in zip(
            _estimators(dict_summary), _estimators(array_summary)
        ):
            cold_dict = [dict_estimator.estimate(q) for q in queries]
            cold_array = [array_estimator.estimate(q) for q in queries]
            assert cold_dict == cold_array  # bit-identical, not approx
            # Warm pass: every shape now replays a compiled plan.
            warm_dict = dict_estimator.estimate_batch(queries)
            warm_array = array_estimator.estimate_batch(queries)
            assert warm_dict == cold_dict
            assert warm_array == cold_array

    @settings(max_examples=25, deadline=None)
    @given(doc=random_tree(min_size=3, max_size=10), data=st.data())
    def test_markov_bit_identical_across_backends(self, doc, data):
        dict_summary = LatticeSummary.build(doc, 3)
        array_summary = LatticeSummary.build(doc, 3, store="array")
        length = data.draw(st.integers(1, 6))
        labels = [data.draw(st.sampled_from(LABELS)) for _ in range(length)]
        path = LabeledTree.path(labels)
        dict_estimator = MarkovPathEstimator(dict_summary, order=2)
        array_estimator = MarkovPathEstimator(array_summary, order=2)
        cold = dict_estimator.estimate(path)
        assert array_estimator.estimate(path) == cold
        assert dict_estimator.estimate(path) == cold  # warm replay
        assert array_estimator.estimate(path) == cold


# ----------------------------------------------------------------------
# Compiled plans
# ----------------------------------------------------------------------


QUERY_TEXTS = [
    "computer(laptops(laptop(brand,price),laptop),desktops)",
    "computer(laptops(laptop(brand,price),laptop(brand)),desktops(desktop))",
    "computer(laptops,desktops(desktop(brand,price)))",
    "laptop(brand,price)",
]


class TestCompiledPlans:
    def test_warm_estimates_bit_identical(self, figure1_lattice):
        for estimator in _estimators(figure1_lattice):
            cold = [estimator.estimate(text) for text in QUERY_TEXTS]
            warm = [estimator.estimate(text) for text in QUERY_TEXTS]
            batch = estimator.estimate_batch(QUERY_TEXTS)
            assert warm == cold
            assert batch == cold

    def test_clear_cache_keeps_estimates_stable(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(
            figure1_lattice, voting=True, shared_cache=True
        )
        cold = [estimator.estimate(text) for text in QUERY_TEXTS]
        estimator.clear_cache()
        assert [estimator.estimate(text) for text in QUERY_TEXTS] == cold

    def test_markov_error_not_cached(self, figure1_lattice):
        pruned = prune_derivable(figure1_lattice, 0.0)
        estimator = MarkovPathEstimator(pruned, order=3)
        path = LabeledTree.path(["computer", "laptops", "laptop", "brand"])
        for _ in range(2):  # raising twice proves no bad plan was cached
            with pytest.raises(KeyError, match="pruned"):
                estimator.estimate(path)

    def test_estimator_with_plans_pickles(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice, voting=True)
        cold = [estimator.estimate(text) for text in QUERY_TEXTS]
        clone = pickle.loads(pickle.dumps(estimator))
        assert [clone.estimate(text) for text in QUERY_TEXTS] == cold

    def test_plan_cache_metrics_exported(self, figure1_lattice):
        estimator = RecursiveDecompositionEstimator(figure1_lattice, voting=True)
        with obs.observed() as (registry, _):
            estimator.estimate(QUERY_TEXTS[0])
            estimator.estimate(QUERY_TEXTS[0])
        requests = registry.get("plan_cache_requests_total")
        assert requests is not None
        by_outcome = {
            (labels["estimator"], labels["outcome"]): value
            for labels, value in requests.samples()
        }
        name = estimator.name
        assert by_outcome[(name, "miss")] == 1
        assert by_outcome[(name, "hit")] == 1
        assert registry.get("plan_cache_size") is not None
        # The memo is keyed by canon, so no estimator interns patterns.
        assert registry.get("intern_table_patterns") is None

    def test_summary_bytes_gauge_exported(self, figure1_doc):
        with obs.observed() as (registry, _):
            summary = LatticeSummary.build(figure1_doc, 3, store="array")
        gauge = registry.get("summary_store_bytes")
        assert gauge is not None
        values = {
            labels["backend"]: value for labels, value in gauge.samples()
        }
        assert values["array"] == summary.byte_size()
