"""Unit tests of the ledger's pure helpers and of BENCHMARK.json.

Run from the repository root::

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Percentiles and the tail rule
# ----------------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics() -> None:
    assert ledger.percentile([4, 1, 3, 2], 50) == 2.5
    assert ledger.percentile([1, 2, 3, 4, 5], 0) == 1
    assert ledger.percentile([1, 2, 3, 4, 5], 100) == 5
    assert ledger.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        ledger.percentile([], 50)


@pytest.mark.parametrize(
    ("n", "q", "beyond"),
    [(1000, 99, 10), (999, 99, 9), (10_000, 99.9, 10), (100, 90, 10), (20, 50, 10)],
)
def test_samples_beyond_counts_exactly(n: int, q: float, beyond: int) -> None:
    assert ledger.samples_beyond(n, q) == beyond


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (100, 90.0),
        (50, 80.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_supported_percentile_keeps_ten_samples_beyond(
    n: int, expected: float | None
) -> None:
    assert ledger.supported_percentile(n) == expected
    if expected is not None:
        assert ledger.samples_beyond(n, expected) >= ledger.BEYOND


def test_calibrated_scales_by_the_bracketing_calibrations() -> None:
    calibrations = [(0.0, 2.0), (10.0, 4.0), (20.0, 2.0)]
    samples = [(1.0, 3.0), (12.0, 6.0), (25.0, 1.0)]
    # Brackets: mean(2, 4) = 3, mean(4, 2) = 3, then only the last, 2.
    assert ledger.calibrated(samples, calibrations, 1.0) == [1.0, 2.0, 0.5]
    # A machine at half speed doubles samples and calibrations alike.
    slow = [(t, 2 * c) for t, c in calibrations]
    assert ledger.calibrated([(t, 2 * s) for t, s in samples], slow, 1.0) == [1.0, 2.0, 0.5]


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, times: list[float]) -> None:
        self.times = iter(times)

    def __call__(self) -> float:
        return next(self.times)


def test_self_time_subtracts_direct_children_only() -> None:
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6].
    recorder = ledger.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    recorder.new_trace()
    with recorder.span("core.root"):
        with recorder.span("mining.a"):
            with recorder.span("store.g"):
                pass
        with recorder.span("trees.b"):
            pass
    assert recorder.self_seconds == {
        "store.g": 1,
        "mining.a": 2,
        "trees.b": 1,
        "core.root": 6,
    }
    assert recorder.durations["core.root"] == [10]
    assert ledger.module_shares(recorder.self_seconds, ("core", "mining", "kernels")) == {
        "core": 60.0,
        "mining": 20.0,
        "kernels": 0.0,
    }


def test_spans_record_parent_and_trace() -> None:
    recorder = ledger.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5]))
    traced = recorder.wrap("core.call", lambda x: x + 1)
    recorder.new_trace()
    with recorder.span("harness.op"):
        assert traced(1) == 2
    recorder.new_trace()
    with recorder.span("harness.op"):
        pass
    spans = {(span[0], span[3]): span for span in recorder.spans}
    child = spans[(2, "core.call")]
    first, second = spans[(1, "harness.op")], spans[(3, "harness.op")]
    assert child[1] == first[0] and first[1] == 0
    assert child[2] == first[2] == 1 and second[2] == 2
    events = recorder.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["core.call", "harness.op", "harness.op"]
    assert events[0]["ts"] == 1e6 and events[0]["dur"] == 1e6


def test_spans_beyond_keep_are_counted_not_stored() -> None:
    recorder = ledger.SpanRecorder(clock=FakeClock(list(range(6))), keep=2)
    for _ in range(3):
        with recorder.span("core.x"):
            pass
    assert len(recorder.spans) == 2 and recorder.dropped == 1
    assert recorder.self_seconds["core.x"] == 3
    mark = {"core.x": 2}
    assert recorder.since(mark, "core.x") == [1]


def test_self_time_table_lists_largest_first() -> None:
    recorder = ledger.SpanRecorder(clock=FakeClock([0, 1, 2, 5]))
    with recorder.span("core.outer"):
        with recorder.span("mining.inner"):
            pass
    lines = ledger.self_time_table(recorder).splitlines()
    assert lines[1].startswith("core.outer") and lines[2].startswith("mining.inner")


# ----------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ----------------------------------------------------------------------


def test_name_problems_flags_bad_undeclared_and_missing_names() -> None:
    assert ledger.name_problems(["a.b", "c_d"], ["c_d", "a.b"]) == []
    problems = ledger.name_problems(["a.b", "bad name", "extra"], ["a.b", "gone"])
    assert any("'bad name' does not match" in p for p in problems)
    assert any("'extra' is not declared" in p for p in problems)
    assert any("'gone' was not printed" in p for p in problems)
    assert ledger.name_problems(["_x"], ["_x"]) != []


def test_benchmark_json_follows_the_contract() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert ledger.name_problems(names, names) == []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.1
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_PATTERN.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_emitted_names_match_benchmark_json() -> None:
    """The code emits exactly the declared metrics and workloads."""
    pytest.importorskip("repro")
    import probes
    import run
    import workloads

    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(workloads.SPECS) == set(run.WORKLOADS)
    per_layer = {
        "trace_overhead",
        "core.streaming.snapshot_recompiles",
        "harness.calibration_us",
    }
    per_layer |= {f"{module}.self_pct" for module in workloads.MODULES}
    for _, names in probes.PROBES:
        per_layer |= set(names)
    assert ledger.name_problems(per_layer, [m["name"] for m in SPEC["per_layer"]]) == []
    end_to_end = {"setup_s", "op_p50_ms", "op_tail_ms", "items_per_s", "peak_rss_mb"}
    assert ledger.name_problems(end_to_end, [m["name"] for m in SPEC["end_to_end"]]) == []


def test_vanished_probe_targets_are_absent_not_errors() -> None:
    pytest.importorskip("repro")
    import probes

    owner, attribute = probes.resolve("repro.store.dict_store", "DictStore.add")
    assert attribute == "add" and owner.__name__ == "DictStore"
    for module, path in [
        ("repro.no_such_module", "f"),
        ("repro.store.dict_store", "DictStore.no_such_method"),
        ("repro.store.dict_store", "NoSuchClass.add"),
    ]:
        with pytest.raises(probes.Absent):
            probes.resolve(module, path)
    with pytest.raises(probes.Absent):
        probes.require_kwarg(lambda shards: None, "workers")
    probes.require_kwarg(lambda workers=None: None, "workers")


def test_missing_patch_point_is_a_note_not_a_failure(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    """A traced run whose span patch point is gone still passes."""
    pytest.importorskip("repro")
    import probes
    import run

    monkeypatch.setattr(
        probes, "PATCH_POINTS", (("repro.no_such_module", "f", "core.gone"),)
    )
    patches = probes.Patches(ledger.SpanRecorder())
    patches.install()
    patches.remove()
    assert patches.absent == ["module repro.no_such_module is gone"]

    per_layer = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace_overhead"]
    gone = per_layer[-1]
    passes = [
        {"attempted": 1, "failed": 0, "failures": [], "samples": {}, "extra": {},
         "metrics": {"op_p50_ms": 2.0}},
        {"attempted": 1, "failed": 0, "failures": [], "samples": {}, "extra": {},
         "metrics": {"op_p50_ms": 2.2},
         "per_layer": {name: 1.0 for name in per_layer[:-1]},
         "absent": [gone], "absent_patches": patches.absent},
    ]
    report = run.assemble(
        {"attempted": 0, "failed": 0, "failures": [], "notes": []}, passes, True
    )
    monkeypatch.setattr(run, "run_workload", lambda *args: report)
    assert run.main(["--workload", "build", "--seed", "1", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"][gone]["value"] == 0.0
    assert result["metrics"]["trace_overhead"]["value"] == pytest.approx(1.1)
    assert "# build absent patches: module repro.no_such_module is gone" in lines


def test_result_line_has_exactly_the_contract_keys() -> None:
    line = ledger.result_line(True, 3, 0, {"setup_s": (0.8127, "s")})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}},
    }
