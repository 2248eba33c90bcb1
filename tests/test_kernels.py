"""Kernel layer tests: backends, bit-identity, and bulk gathers.

The flat-array kernel executor (``repro.kernels``) promises to be a
pure throughput choice: it must return the same bit pattern as the
compiled-plan replay and emit the same observability counters.  The
property suite here pins that promise across random twigs for all
three plan families, and the unit tests cover the backend-selection
knob, the CI numpy/no-numpy matrix contract, and
:meth:`ArrayStore.gather_counts`.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FixedDecompositionEstimator,
    LabeledTree,
    MarkovPathEstimator,
    RecursiveDecompositionEstimator,
)
from repro import obs
from repro.kernels import (
    HAVE_NUMPY,
    KERNEL_BACKENDS,
    available_backends,
    lower_plan,
    resolve_backend,
)
from repro.store.array_store import ArrayStore

#: Labels of the Figure 1(a) document (the ``figure1_lattice`` fixture).
LABELS = ("computer", "laptops", "laptop", "brand", "price", "desktops", "desktop")


@st.composite
def query_tree(draw, max_size=6):
    """Random twig over the Figure-1 label alphabet."""
    size = draw(st.integers(1, max_size))
    tree = LabeledTree(draw(st.sampled_from(LABELS)))
    for i in range(1, size):
        parent = draw(st.integers(0, i - 1))
        tree.add_child(parent, draw(st.sampled_from(LABELS)))
    return tree


@st.composite
def path_query(draw, max_len=4):
    """Random linear path (what MarkovPathEstimator accepts)."""
    length = draw(st.integers(1, max_len))
    labels = [draw(st.sampled_from(LABELS)) for _ in range(length)]
    return LabeledTree.path(labels)


def counter_totals(registry):
    """Per-label counter samples, kernel-layer counters excluded.

    The kernel path adds ``kernel_*`` counters of its own; everything
    else — plan cache hits/misses, store probes, batch totals — must
    match the legacy path exactly.
    """
    return {
        metric.name: sorted(
            (tuple(sorted(labels.items())), value)
            for labels, value in metric.samples()
        )
        for metric in registry
        if metric.kind == "counter" and not metric.name.startswith("kernel_")
    }


def run_batches(estimator, queries, backend):
    """Two batches (cold-compiling, then warm) and the counters emitted."""
    with obs.observed() as (registry, _):
        first = estimator.estimate_batch(queries, backend=backend)
        second = estimator.estimate_batch(queries, backend=backend)
    return first, second, counter_totals(registry)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_resolve_defaults(self) -> None:
        assert resolve_backend(None) == "plan"
        assert resolve_backend("plan") == "plan"
        expected = "numpy" if HAVE_NUMPY else "plan"
        assert resolve_backend("auto") == expected

    def test_resolve_rejects_unknown(self) -> None:
        for name in ("cuda", "array"):
            with pytest.raises(ValueError, match="unknown estimation backend"):
                resolve_backend(name)

    def test_available_backends_include_fallback(self) -> None:
        backends = available_backends()
        assert backends[0] == "plan"
        assert set(KERNEL_BACKENDS) == set(backends) - {"plan"}

    def test_numpy_presence_matches_ci_leg(self) -> None:
        """The CI matrix contract: REPRO_EXPECT_NUMPY pins HAVE_NUMPY.

        The no-numpy legs export ``REPRO_EXPECT_NUMPY=0`` after
        uninstalling numpy, so this assertion is what proves those legs
        really exercised the fallback import path rather than silently
        picking up a stray numpy.
        """
        expected = os.environ.get("REPRO_EXPECT_NUMPY")
        if expected is None:
            pytest.skip("REPRO_EXPECT_NUMPY not set (not a CI matrix leg)")
        assert HAVE_NUMPY is (expected == "1")

    def test_disable_numpy_env_forces_fallback(self) -> None:
        """REPRO_DISABLE_NUMPY masks numpy in a fresh interpreter."""
        code = (
            "from repro.kernels import HAVE_NUMPY, KERNEL_BACKENDS, resolve_backend\n"
            "assert not HAVE_NUMPY\n"
            "assert KERNEL_BACKENDS == ()\n"
            "assert resolve_backend('auto') == 'plan'\n"
            "try:\n"
            "    resolve_backend('numpy')\n"
            "except ValueError as exc:\n"
            "    assert 'not importable' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('numpy backend resolved without numpy')\n"
            "print('fallback ok')\n"
        )
        env = dict(os.environ, REPRO_DISABLE_NUMPY="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback ok" in proc.stdout

    def test_numpy_without_numpy_raises(self) -> None:
        if HAVE_NUMPY:
            pytest.skip("numpy importable here; covered by the subprocess test")
        with pytest.raises(ValueError, match="not importable"):
            resolve_backend("numpy")

    def test_non_kernel_estimator_rejects_explicit_backend(
        self, figure1_lattice
    ) -> None:
        estimator = MarkovPathEstimator(figure1_lattice)
        # Markov supports kernels; build a non-kernel stand-in instead.
        query = LabeledTree.path(["computer"])

        class Plain(RecursiveDecompositionEstimator):
            supports_kernels = False

        plain = Plain(figure1_lattice)
        if HAVE_NUMPY:
            with pytest.raises(
                ValueError, match="does not support kernel backend"
            ):
                plain.estimate_batch([query], backend="numpy")
        # "auto" degrades silently instead of raising.
        assert plain.estimate_batch([query], backend="auto") == [
            estimator.estimate(query)
        ]


# ----------------------------------------------------------------------
# Cross-backend bit-identity (the tentpole invariant)
# ----------------------------------------------------------------------


class TestBackendEquivalence:
    @given(queries=st.lists(query_tree(), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_recursive_backends_bit_identical(
        self, figure1_lattice, queries
    ) -> None:
        legacy = RecursiveDecompositionEstimator(figure1_lattice)
        expected_first, expected_second, expected_counters = run_batches(
            legacy, queries, backend=None
        )
        assert expected_first == expected_second
        for backend in KERNEL_BACKENDS:
            estimator = RecursiveDecompositionEstimator(figure1_lattice)
            first, second, counters = run_batches(estimator, queries, backend)
            assert first == expected_first, backend
            assert second == expected_second, backend
            assert counters == expected_counters, backend

    @given(queries=st.lists(query_tree(), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_voting_backends_bit_identical(
        self, figure1_lattice, queries
    ) -> None:
        legacy = RecursiveDecompositionEstimator(figure1_lattice, voting=True)
        expected_first, expected_second, expected_counters = run_batches(
            legacy, queries, backend=None
        )
        for backend in KERNEL_BACKENDS:
            estimator = RecursiveDecompositionEstimator(
                figure1_lattice, voting=True
            )
            first, second, counters = run_batches(estimator, queries, backend)
            assert first == expected_first, backend
            assert second == expected_second, backend
            assert counters == expected_counters, backend

    @given(queries=st.lists(query_tree(), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_fixed_backends_bit_identical(
        self, figure1_lattice, queries
    ) -> None:
        legacy = FixedDecompositionEstimator(figure1_lattice)
        expected_first, expected_second, expected_counters = run_batches(
            legacy, queries, backend=None
        )
        for backend in KERNEL_BACKENDS:
            estimator = FixedDecompositionEstimator(figure1_lattice)
            first, second, counters = run_batches(estimator, queries, backend)
            assert first == expected_first, backend
            assert second == expected_second, backend
            assert counters == expected_counters, backend

    @given(queries=st.lists(path_query(), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_markov_backends_bit_identical(
        self, figure1_lattice, queries
    ) -> None:
        legacy = MarkovPathEstimator(figure1_lattice, order=2)
        expected_first, expected_second, expected_counters = run_batches(
            legacy, queries, backend=None
        )
        for backend in KERNEL_BACKENDS:
            estimator = MarkovPathEstimator(figure1_lattice, order=2)
            first, second, counters = run_batches(estimator, queries, backend)
            assert first == expected_first, backend
            assert second == expected_second, backend
            assert counters == expected_counters, backend

    def test_markov_kernel_batch_still_rejects_branching(
        self, figure1_lattice
    ) -> None:
        estimator = MarkovPathEstimator(figure1_lattice)
        twig = LabeledTree("computer")
        twig.add_child(0, "laptops")
        twig.add_child(0, "desktops")
        with pytest.raises(ValueError, match="linear path"):
            estimator.estimate_batch([twig], backend="auto")

    def test_lowered_program_matches_plan_evaluate(
        self, figure1_lattice
    ) -> None:
        """Direct lowering check, no estimator batch machinery in between."""
        if not HAVE_NUMPY:
            pytest.skip("lowered programs only run on the numpy executor")
        from repro.kernels.exec_numpy import prepare_batch

        estimator = RecursiveDecompositionEstimator(figure1_lattice, voting=True)
        queries = [
            LabeledTree.path(["computer", "laptops", "laptop"]),
            LabeledTree.path(["computer", "desktops", "desktop", "price"]),
        ]
        estimator.estimate_batch(queries)
        warm = list(estimator._kernel_warm_plans())
        assert warm
        for _pattern_id, plan in warm:
            assert prepare_batch([lower_plan(plan)]).run() == [plan.evaluate()]

    def test_parallel_kernel_batch_matches_serial(self, figure1_lattice) -> None:
        queries = [
            LabeledTree.path(["computer", "laptops", "laptop"]),
            LabeledTree.path(["computer", "desktops", "desktop"]),
        ] * 4
        estimator = RecursiveDecompositionEstimator(figure1_lattice)
        expected = estimator.estimate_batch(queries)
        for backend in KERNEL_BACKENDS:
            fresh = RecursiveDecompositionEstimator(figure1_lattice)
            fresh.estimate_batch(queries)  # compile + pre-lower source plans
            assert (
                fresh.estimate_batch(queries, workers=2, backend=backend)
                == expected
            ), backend


# ----------------------------------------------------------------------
# ArrayStore bulk gathers
# ----------------------------------------------------------------------


def make_store() -> ArrayStore:
    store = ArrayStore()
    store.add(("a", ()), 3)
    store.add(("b", ()), 0)
    store.add(("c", ()), 2**40)
    return store


class TestGatherCounts:
    def test_gathers_in_request_order(self) -> None:
        store = make_store()
        out = store.gather_counts([2, 0, 1, 0])
        assert out.typecode == "q"
        assert list(out) == [2**40, 3, 0, 3]

    def test_zero_counts_survive(self) -> None:
        assert list(make_store().gather_counts([1, 1])) == [0, 0]

    def test_large_counts_unclipped(self) -> None:
        # 'q' slots: counts past 2**31 (and 2**32) must come back intact.
        store = ArrayStore()
        store.add(("a", ()), 2**31 + 7)
        store.add(("b", ()), 2**40 + 11)
        assert list(store.gather_counts([0, 1])) == [2**31 + 7, 2**40 + 11]

    def test_missing_id_raises_with_id_in_message(self) -> None:
        store = make_store()
        with pytest.raises(KeyError, match=r"pattern id 7 not in store"):
            store.gather_counts([0, 7])
        with pytest.raises(KeyError, match=r"pattern id -1 not in store"):
            store.gather_counts([-1])

    def test_unknown_id_never_wraps_around(self) -> None:
        # A negative id must not silently read from the end of the
        # count vector the way a raw array index would.
        store = make_store()
        with pytest.raises(KeyError, match=r"pattern id -2 not in store"):
            store.gather_counts([-2])

    def test_missing_substitute(self) -> None:
        store = make_store()
        assert list(store.gather_counts([0, 99, -5], missing=-1)) == [3, -1, -1]

    def test_empty_input(self) -> None:
        assert list(make_store().gather_counts([])) == []

    def test_gather_emits_counter_when_observed(self) -> None:
        store = make_store()
        with obs.observed() as (registry, _):
            store.gather_counts([0, 1, 2])
        counter = registry.get("store_gather_ids_total")
        assert counter is not None
        assert counter.value(backend="array") == 3
