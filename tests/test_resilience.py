"""Chaos and property tests for the fault-tolerant execution layer.

The resilience contract has three faces, and each gets pinned here:

* **bit-identity** — any fault schedule the retry budget absorbs
  (crashes, worker errors, pickling failures, hangs) leaves batched
  estimation byte-for-byte equal to the serial path;
* **graceful degradation** — an exhausted budget finishes the lost
  chunks serially (exact results, ``degraded_mode`` gauge, health
  ledger, CLI exit status 3) instead of failing, unless fallback was
  explicitly disabled, in which case a chained, actionable
  :class:`ChunkFailureError` names the chunk;
* **corruption detection** — a flipped byte in a persisted store
  payload dies with a typed :class:`ChecksumMismatch`, never a garbage
  decode.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    ChecksumMismatch,
    ChunkFailureError,
    DictStore,
    LabeledTree,
    LatticeSummary,
    RecursiveDecompositionEstimator,
    RetryBudgetExhausted,
    RetryPolicy,
    StoreError,
    StorePayloadError,
    TruncatedPayload,
    TwigQuery,
    UnknownBackendError,
    UnsupportedVersion,
    make_store,
)
from repro import obs
from repro.cli import main
from repro.parallel.batch import FAULT_SITE as BATCH_SITE
from repro.parallel.pool import PoolSupervisor
from repro.resilience import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    active_plan,
    corrupt_bytes,
    degraded_events,
    fault_plan,
    last_degraded_site,
    run_chunks,
)
from repro.store.array_store import ArrayStore
from repro.trees.serialize import tree_to_xml_file

#: A budget wide enough for every schedule injected below, with no
#: backoff sleeps so the suite stays fast.
ABSORBS = RetryPolicy(max_retries=3, backoff_base=0.0, fallback=True)

NO_FALLBACK = RetryPolicy(max_retries=1, backoff_base=0.0, fallback=False)


@pytest.fixture(scope="module")
def estimator(figure1_doc) -> RecursiveDecompositionEstimator:
    return RecursiveDecompositionEstimator(
        LatticeSummary.build(figure1_doc, 4), voting=True
    )


@pytest.fixture(scope="module")
def queries() -> list[TwigQuery]:
    texts = [
        "/laptops/laptop[brand][price]",
        "/computer/laptops",
        "/desktops/desktop[price]",
        "/computer/laptops/laptop",
        "/laptops/laptop[brand]",
    ] * 2
    return [TwigQuery.parse(text) for text in texts]


@pytest.fixture(scope="module")
def serial_estimates(estimator, queries) -> list[float]:
    return estimator.estimate_batch(queries)


# ----------------------------------------------------------------------
# Fault spec parsing and plan determinism
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_parse_multi_clause(self):
        plan = FaultPlan.parse(
            "crash@batch.estimate_chunk:after=1,times=2; "
            "hang@*:seconds=0.5; corrupt@store.array_payload:times=*"
        )
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["crash", "hang", "corrupt"]
        assert plan.rules[0].after == 1 and plan.rules[0].times == 2
        assert plan.rules[1].site == "*" and plan.rules[1].seconds == 0.5
        assert plan.rules[2].times is None

    @pytest.mark.parametrize(
        "spec",
        [
            "explode@site",  # unknown kind
            "crash",  # missing @site
            "crash@site:when=now",  # unknown option
            "crash@site:times=soon",  # bad value
            "crash@site:times=0",  # out of range
            "crash@site:p=2.0",  # out of range
            "  ;  ",  # no clauses
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("nope")

    def test_after_times_window(self):
        plan = FaultPlan([FaultRule(kind="error", site="s", after=2, times=2)])
        fired = [plan.draw("s") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert plan.injected == 2

    def test_wildcard_site_matches_everything(self):
        plan = FaultPlan([FaultRule(kind="error", site="*")])
        assert plan.draw("anything") is not None

    def test_kind_filter_neither_fires_nor_consumes(self):
        plan = FaultPlan([FaultRule(kind="corrupt", site="s", times=1)])
        # Pool submissions never draw corrupt rules...
        assert plan.draw("s") is None
        # ...and the single corruption shot is still armed afterwards.
        assert plan.draw("s", kinds=("corrupt",)) is not None

    def test_probability_stream_is_seeded(self):
        def firing_pattern() -> list[bool]:
            plan = FaultPlan(
                [FaultRule(kind="error", site="s", times=None, p=0.5, seed=42)]
            )
            return [plan.draw("s") is not None for _ in range(32)]

        first, second = firing_pattern(), firing_pattern()
        assert first == second
        assert any(first) and not all(first)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.12)
        assert policy.backoff_for(0) == 0.0
        assert policy.backoff_for(1) == pytest.approx(0.05)
        assert policy.backoff_for(2) == pytest.approx(0.10)
        assert policy.backoff_for(3) == pytest.approx(0.12)

    def test_none_fails_fast(self):
        policy = RetryPolicy.none()
        assert policy.max_retries == 0
        assert not policy.fallback
        assert policy.backoff_for(1) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"attempt_timeout": 0.0},
            {"deadline": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# The retry engine, exercised in-process through a fake supervisor
# ----------------------------------------------------------------------


class ImmediateSupervisor:
    """Runs submissions synchronously; safe for error/pickle faults."""

    def __init__(self) -> None:
        self.rebuilds = 0

    def submit(self, fn, /, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def rebuild(self) -> None:
        self.rebuilds += 1


def _double(value: int) -> int:
    return value * 2


class TestRunChunks:
    def test_healthy_run(self):
        report = run_chunks(
            _double,
            [(i,) for i in range(5)],
            supervisor=ImmediateSupervisor(),
            site="unit",
            policy=RetryPolicy.none(),
        )
        assert report.results == [0, 2, 4, 6, 8]
        assert report.rounds == 1
        assert report.resubmissions == 0
        assert not report.degraded_mode

    def test_empty_tasks(self):
        report = run_chunks(
            _double,
            [],
            supervisor=ImmediateSupervisor(),
            site="unit",
            policy=RetryPolicy.none(),
        )
        assert report.results == []
        assert report.rounds == 0

    def test_error_fault_recovers_in_order(self):
        plan = FaultPlan([FaultRule(kind="error", site="unit", after=1, times=2)])
        report = run_chunks(
            _double,
            [(i,) for i in range(5)],
            supervisor=ImmediateSupervisor(),
            site="unit",
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            plan=plan,
        )
        assert report.results == [0, 2, 4, 6, 8]
        assert report.faults_injected == 2
        assert report.resubmissions == 2
        assert report.rounds == 2

    def test_pickle_fault_fails_at_submission_and_recovers(self):
        plan = FaultPlan([FaultRule(kind="pickle", site="unit", times=1)])
        report = run_chunks(
            _double,
            [(i,) for i in range(3)],
            supervisor=ImmediateSupervisor(),
            site="unit",
            policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            plan=plan,
        )
        assert report.results == [0, 2, 4]
        assert report.resubmissions == 1

    def test_exhausted_without_fallback_raises_chained(self):
        plan = FaultPlan([FaultRule(kind="error", site="unit", times=None)])
        with pytest.raises(RetryBudgetExhausted) as excinfo:
            run_chunks(
                _double,
                [(i,) for i in range(3)],
                supervisor=ImmediateSupervisor(),
                site="unit",
                policy=NO_FALLBACK,
                plan=plan,
            )
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert "chunk 1/3" in str(excinfo.value)
        assert "RetryPolicy" in str(excinfo.value)  # actionable remedy

    def test_exhausted_with_fallback_degrades_exactly(self):
        plan = FaultPlan(
            [FaultRule(kind="error", site="unit", after=2, times=None)]
        )
        before = degraded_events()
        report = run_chunks(
            _double,
            [(i,) for i in range(5)],
            supervisor=ImmediateSupervisor(),
            site="unit",
            policy=RetryPolicy(max_retries=1, backoff_base=0.0, fallback=True),
            serial_fallback=lambda task: _double(*task),
            plan=plan,
        )
        assert report.results == [0, 2, 4, 6, 8]
        assert report.degraded_mode
        assert degraded_events() - before == len(report.degraded)
        assert last_degraded_site() == "unit"

    def test_deadline_short_circuits_to_fallback(self):
        plan = FaultPlan([FaultRule(kind="error", site="unit", times=None)])
        report = run_chunks(
            _double,
            [(i,) for i in range(3)],
            supervisor=ImmediateSupervisor(),
            site="unit",
            policy=RetryPolicy(
                max_retries=10**9, backoff_base=0.0, deadline=0.05, fallback=True
            ),
            serial_fallback=lambda task: _double(*task),
            plan=plan,
        )
        assert report.results == [0, 2, 4]
        assert report.degraded == (0, 1, 2)


class TestPoolSupervisor:
    def test_lazy_rebuildable_lifecycle(self):
        class FakeExecutor:
            def __init__(self) -> None:
                self.shutdowns: list[tuple] = []

            def submit(self, fn, *args) -> Future:
                future: Future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False) -> None:
                self.shutdowns.append((wait, cancel_futures))

        built: list[FakeExecutor] = []

        def factory() -> FakeExecutor:
            built.append(FakeExecutor())
            return built[-1]

        supervisor = PoolSupervisor(factory)  # type: ignore[arg-type]
        assert built == []  # nothing until the first submit
        supervisor.rebuild()
        assert supervisor.rebuilds == 0  # no pool yet, nothing to rebuild
        assert supervisor.submit(_double, 3).result() == 6
        assert len(built) == 1
        supervisor.rebuild()
        assert supervisor.rebuilds == 1
        assert built[0].shutdowns == [(False, True)]  # abandoned, not joined
        assert supervisor.submit(_double, 4).result() == 8
        assert len(built) == 2
        supervisor.close()
        assert built[1].shutdowns == [(True, False)]


# ----------------------------------------------------------------------
# End-to-end bit-identity through real process pools
# ----------------------------------------------------------------------


class TestBatchUnderFaults:
    def test_crash_recovery_is_bit_identical(
        self, estimator, queries, serial_estimates
    ):
        with fault_plan("crash@batch.estimate_chunk:times=1"):
            parallel = estimator.estimate_batch(queries, workers=2, retry=ABSORBS)
        assert parallel == serial_estimates

    def test_pickle_failure_recovers(self, estimator, queries, serial_estimates):
        with fault_plan("pickle@batch.estimate_chunk:times=2"):
            parallel = estimator.estimate_batch(queries, workers=2, retry=ABSORBS)
        assert parallel == serial_estimates

    def test_hang_is_cut_by_attempt_timeout(
        self, estimator, queries, serial_estimates
    ):
        policy = RetryPolicy(max_retries=2, backoff_base=0.0, attempt_timeout=0.5)
        with fault_plan("hang@batch.estimate_chunk:times=1,seconds=2.0"):
            parallel = estimator.estimate_batch(queries, workers=2, retry=policy)
        assert parallel == serial_estimates

    def test_exhausted_budget_degrades_to_exact_serial(
        self, estimator, queries, serial_estimates
    ):
        before = degraded_events()
        with fault_plan("error@batch.estimate_chunk:times=*"):
            parallel = estimator.estimate_batch(
                queries,
                workers=2,
                retry=RetryPolicy(max_retries=1, backoff_base=0.0, fallback=True),
            )
        assert parallel == serial_estimates
        assert degraded_events() - before == 8  # every chunk fell back
        assert last_degraded_site() == BATCH_SITE

    def test_no_retry_raises_actionable_chunk_error(
        self, estimator, queries
    ):
        with fault_plan("error@batch.estimate_chunk:times=*"):
            with pytest.raises(ChunkFailureError) as excinfo:
                estimator.estimate_batch(queries, workers=2)
        message = str(excinfo.value)
        assert BATCH_SITE in message
        assert "workers=None" in message  # tells the operator what to do
        assert excinfo.value.__cause__ is not None

    def test_counters_and_gauge_reflect_the_chaos(
        self, estimator, queries, serial_estimates
    ):
        with obs.observed() as (registry, _):
            with fault_plan("error@batch.estimate_chunk:times=2"):
                parallel = estimator.estimate_batch(
                    queries, workers=2, retry=ABSORBS
                )
        assert parallel == serial_estimates
        faults = registry.get("fault_injected_total")
        attempts = registry.get("retry_attempts_total")
        assert faults.value(site=BATCH_SITE, kind="error") == 2
        # Worker-raised errors fail exactly the faulted chunks, so
        # re-submissions match injections one for one.
        assert attempts.value(site=BATCH_SITE) == 2
        assert registry.get("retry_rounds_total").value(site=BATCH_SITE) == 1
        assert registry.get("degraded_mode").value(site=BATCH_SITE) == 0

    def test_degraded_gauge_and_exhausted_counter(self, estimator, queries):
        with obs.observed() as (registry, _):
            with fault_plan("error@batch.estimate_chunk:times=*"):
                estimator.estimate_batch(
                    queries,
                    workers=2,
                    retry=RetryPolicy(
                        max_retries=1, backoff_base=0.0, fallback=True
                    ),
                )
        assert registry.get("degraded_mode").value(site=BATCH_SITE) == 1
        assert registry.get("retry_exhausted_total").value(site=BATCH_SITE) == 8

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(after=st.integers(0, 3), times=st.integers(1, 2))
    def test_any_absorbed_error_schedule_is_bit_identical(
        self, estimator, queries, serial_estimates, after, times
    ):
        spec = f"error@batch.estimate_chunk:after={after},times={times}"
        with fault_plan(spec):
            parallel = estimator.estimate_batch(queries, workers=2, retry=ABSORBS)
        assert parallel == serial_estimates


# ----------------------------------------------------------------------
# Activation: environment spec and explicit shielding
# ----------------------------------------------------------------------


class TestActivation:
    def test_env_spec_is_parsed_and_cached(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "error@nowhere.special:times=1,seed=101")
        plan = active_plan()
        assert plan is not None and plan.rules[0].site == "nowhere.special"
        assert active_plan() is plan  # same object: counting state holds

    def test_env_driven_fault_is_absorbed(
        self, monkeypatch, estimator, queries, serial_estimates
    ):
        monkeypatch.setenv(
            ENV_VAR, "error@batch.estimate_chunk:times=1,seed=102"
        )
        parallel = estimator.estimate_batch(queries, workers=2, retry=ABSORBS)
        assert parallel == serial_estimates

    def test_fault_plan_none_shields_from_env(self, monkeypatch):
        monkeypatch.setenv(
            ENV_VAR, "corrupt@store.array_payload:times=*,seed=103"
        )
        store = ArrayStore()
        store.add(("a", (("b", ()),)), 7)
        with fault_plan(None):
            assert active_plan() is None
            restored = ArrayStore.from_payload(store.to_payload())
        assert list(restored.items()) == list(store.items())

    def test_no_plan_is_a_no_op(self):
        with fault_plan(None):
            assert corrupt_bytes("store.array_payload", b"abc") == b"abc"


# ----------------------------------------------------------------------
# Store payload integrity
# ----------------------------------------------------------------------


def _array_store() -> ArrayStore:
    store = ArrayStore()
    store.add(("a", (("b", ()),)), 3)
    store.add(("a", (("b", ()), ("c", ()))), 5)
    return store


class TestStoreIntegrity:
    def test_array_bit_flip_dies_with_checksum_mismatch(self):
        payload = _array_store().to_payload()
        counts = bytearray(payload["counts"])
        counts[len(counts) // 2] ^= 0x01
        payload["counts"] = bytes(counts)
        with pytest.raises(ChecksumMismatch, match="checksum mismatch"):
            ArrayStore.from_payload(payload)

    def test_array_injected_corruption_detected(self):
        payload = _array_store().to_payload()
        with fault_plan("corrupt@store.array_payload:times=1"):
            with pytest.raises(ChecksumMismatch):
                ArrayStore.from_payload(payload)

    def test_dict_injected_corruption_detected(self):
        store = DictStore()
        store.add(("a", (("b", ()),)), 3)
        payload = store.to_payload()
        with fault_plan("corrupt@store.dict_payload:times=1"):
            with pytest.raises(ChecksumMismatch):
                DictStore.from_payload(payload)

    def test_dict_round_trip_preserves_order(self):
        store = DictStore()
        store.add(("z", ()), 9)
        store.add(("a", (("b", ()),)), 3)
        restored = DictStore.from_payload(store.to_payload())
        assert list(restored.items()) == list(store.items())

    def test_array_v1_payload_still_loads(self):
        store = _array_store()
        payload = store.to_payload()
        del payload["crc32"]
        payload["payload_version"] = 1
        restored = ArrayStore.from_payload(payload)
        assert list(restored.items()) == list(store.items())

    def test_unknown_version_rejected(self):
        payload = _array_store().to_payload()
        payload["payload_version"] = 99
        with pytest.raises(UnsupportedVersion):
            ArrayStore.from_payload(payload)

    def test_missing_field_is_truncated(self):
        payload = _array_store().to_payload()
        del payload["crc32"]
        payload["payload_version"] = 1  # v1: no checksum to catch it first
        del payload["labels"]
        with pytest.raises(TruncatedPayload):
            ArrayStore.from_payload(payload)

    def test_short_count_vector_is_truncated(self):
        payload = _array_store().to_payload()
        del payload["crc32"]
        payload["payload_version"] = 1
        payload["counts"] = payload["counts"][:-3]
        with pytest.raises(TruncatedPayload):
            ArrayStore.from_payload(payload)

    def test_non_bytes_counts_is_truncated(self):
        payload = _array_store().to_payload()
        payload["counts"] = [1, 2, 3]
        with pytest.raises(TruncatedPayload):
            ArrayStore.from_payload(payload)

    def test_dict_malformed_stream_is_truncated(self):
        from repro.store.integrity import payload_checksum

        data = b"notanumber\tkey"
        payload = {
            "payload_version": 2,
            "data": data,
            "crc32": payload_checksum([data]),
        }
        with pytest.raises(TruncatedPayload):
            DictStore.from_payload(payload)

    def test_dict_too_deep_stream_is_truncated(self):
        # Two sibling chains deeper than tuple comparison can recurse.
        from repro.store.integrity import payload_checksum

        chain = "a(" * 3000 + "{}" + ")" * 3000
        key = f"r({chain.format('b')},{chain.format('c')})"
        data = f"1\t{key}".encode()
        payload = {
            "payload_version": 2,
            "data": data,
            "crc32": payload_checksum([data]),
        }
        try:
            store = DictStore.from_payload(payload)
        except TruncatedPayload:
            return  # this interpreter cannot order the siblings
        assert [count for _, count in store.items()] == [1]

    def test_taxonomy_keeps_value_error_base(self):
        assert issubclass(ChecksumMismatch, StorePayloadError)
        assert issubclass(TruncatedPayload, StorePayloadError)
        assert issubclass(UnsupportedVersion, StorePayloadError)
        assert issubclass(StorePayloadError, StoreError)
        assert issubclass(UnknownBackendError, StoreError)
        assert issubclass(StoreError, ValueError)

    def test_unknown_backend_is_typed(self):
        with pytest.raises(UnknownBackendError):
            make_store("bogus")
        with pytest.raises(ValueError):  # callers matching ValueError still work
            make_store("bogus")


# ----------------------------------------------------------------------
# CLI: retry flags and the degraded exit status
# ----------------------------------------------------------------------


class TestCliResilience:
    @pytest.fixture()
    def summary_file(self, tmp_path, figure1_doc):
        xml = tmp_path / "doc.xml"
        tree_to_xml_file(figure1_doc, xml)
        path = tmp_path / "doc.summary"
        assert main(["summarize", str(xml), "-o", str(path)]) == 0
        return path

    @pytest.fixture()
    def batch_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "laptops(laptop(brand,price))\ncomputer(laptops)\n"
            "desktops(desktop(price))\n",
            encoding="utf-8",
        )
        return path

    def _estimate(self, summary_file, batch_file, *flags):
        argv = ["estimate", str(summary_file), "--batch", str(batch_file)]
        return main(argv + ["--workers", "2", *flags])

    def test_healthy_run_with_retry_flags_exits_zero(
        self, summary_file, batch_file, capsys
    ):
        code = self._estimate(
            summary_file, batch_file, "--retry", "1", "--timeout", "30"
        )
        assert code == 0
        assert capsys.readouterr().out.count("~=") == 3

    def test_degraded_run_exits_three(
        self, summary_file, batch_file, monkeypatch, capsys
    ):
        monkeypatch.setenv(
            ENV_VAR, "error@batch.estimate_chunk:times=*,seed=104"
        )
        code = self._estimate(summary_file, batch_file, "--retry", "1")
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.count("~=") == 3  # degraded still means completed
        assert "degraded" in captured.err

    def test_persistent_fault_without_retry_exits_one(
        self, summary_file, batch_file, monkeypatch, capsys
    ):
        monkeypatch.setenv(
            ENV_VAR, "error@batch.estimate_chunk:times=*,seed=105"
        )
        code = self._estimate(summary_file, batch_file)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and BATCH_SITE in err

    def test_negative_retry_is_usage_error(self, summary_file, batch_file, capsys):
        code = self._estimate(summary_file, batch_file, "--retry", "-1")
        assert code == 2
        assert "--retry" in capsys.readouterr().err
