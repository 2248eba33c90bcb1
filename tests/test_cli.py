"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.trees.serialize import tree_to_xml_file


@pytest.fixture()
def xml_file(tmp_path, figure1_doc):
    path = tmp_path / "doc.xml"
    tree_to_xml_file(figure1_doc, path)
    return path


@pytest.fixture()
def summary_file(tmp_path, xml_file):
    path = tmp_path / "doc.summary"
    assert main(["summarize", str(xml_file), "-k", "4", "-o", str(path)]) == 0
    return path


class TestSummarize:
    def test_writes_summary(self, xml_file, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        code = main(["summarize", str(xml_file), "-o", str(out)])
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "mined" in printed
        assert "written" in printed

    def test_with_pruning(self, xml_file, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        code = main(["summarize", str(xml_file), "-o", str(out), "--prune", "0"])
        assert code == 0
        assert "pruned" in capsys.readouterr().out

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["summarize", str(tmp_path / "nope.xml"), "-o", "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    @pytest.mark.parametrize("estimator", ["recursive", "voting", "fixed"])
    def test_estimators(self, summary_file, estimator, capsys):
        code = main(
            [
                "estimate",
                str(summary_file),
                "laptop(brand,price)",
                "--estimator",
                estimator,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "estimate  : 2.00" in printed

    def test_markov_on_path(self, summary_file, capsys):
        code = main(
            [
                "estimate",
                str(summary_file),
                "/computer/laptops/laptop",
                "--estimator",
                "markov",
            ]
        )
        assert code == 0
        assert "estimate" in capsys.readouterr().out

    def test_markov_on_branching_errors(self, summary_file, capsys):
        code = main(
            [
                "estimate",
                str(summary_file),
                "laptop(brand,price)",
                "--estimator",
                "markov",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExplain:
    def test_trace_printed(self, summary_file, capsys):
        code = main(
            ["explain", str(summary_file), "computer(laptops(laptop(brand,price)))"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "s(t1) * s(t2) / s(common)" in printed
        assert "summary lookups" in printed

    def test_voting_flag(self, summary_file, capsys):
        code = main(
            [
                "explain",
                str(summary_file),
                "computer(laptops(laptop),desktops)",
                "--voting",
            ]
        )
        assert code == 0


class TestExact:
    def test_count(self, xml_file, capsys):
        code = main(["exact", str(xml_file), "laptop(brand,price)"])
        assert code == 0
        assert "count : 2" in capsys.readouterr().out


class TestMine:
    def test_levels_printed(self, xml_file, capsys):
        code = main(["mine", str(xml_file), "-k", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "level" in printed
        assert "    3  " in printed


class TestDataset:
    def test_generates_xml(self, tmp_path, capsys):
        out = tmp_path / "nasa.xml"
        code = main(["dataset", "nasa", "-n", "5", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "elements" in capsys.readouterr().out

    def test_unknown_dataset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "enron", "-o", "x"])


class TestCatalogCli:
    def test_register_list_estimate_forget(self, tmp_path, xml_file, capsys):
        directory = str(tmp_path / "cat")
        assert main(["catalog", directory, "register", "shop", str(xml_file)]) == 0
        assert "registered 'shop'" in capsys.readouterr().out

        assert main(["catalog", directory, "list"]) == 0
        assert "shop" in capsys.readouterr().out

        assert main(
            ["catalog", directory, "estimate", "shop", "laptop(brand,price)"]
        ) == 0
        assert "~= 2.00" in capsys.readouterr().out

        assert main(["catalog", directory, "forget", "shop"]) == 0
        capsys.readouterr()
        assert main(["catalog", directory, "list"]) == 0
        assert "empty catalog" in capsys.readouterr().out

    def test_register_with_budget(self, tmp_path, xml_file, figure1_doc, capsys):
        from repro.core.lattice import LatticeSummary

        # byte_size() reports the real backend footprint, which varies by
        # interpreter; derive the budget from an identical build instead
        # of hard-coding bytes.
        budget = LatticeSummary.build(figure1_doc, 4).byte_size()
        directory = str(tmp_path / "cat")
        code = main(
            [
                "catalog",
                directory,
                "register",
                "shop",
                str(xml_file),
                "--budget",
                str(budget),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "registered" in printed

    def test_register_budget_too_small_errors(self, tmp_path, xml_file, capsys):
        directory = str(tmp_path / "cat")
        code = main(
            ["catalog", directory, "register", "shop", str(xml_file), "--budget", "64"]
        )
        assert code == 1
        assert "cannot be pruned" in capsys.readouterr().err

    def test_estimate_unknown_entry_errors(self, tmp_path, capsys):
        code = main(["catalog", str(tmp_path / "cat"), "estimate", "ghost", "a(b)"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    """Bad user input exits with status 2 and one stderr line."""

    def _assert_usage_error(self, code, capsys):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # exactly one line

    def test_estimate_unparseable_query(self, summary_file, capsys):
        code = main(["estimate", str(summary_file), "a(b"])
        self._assert_usage_error(code, capsys)

    def test_estimate_missing_summary(self, tmp_path, capsys):
        code = main(["estimate", str(tmp_path / "nope.summary"), "a(b)"])
        self._assert_usage_error(code, capsys)

    def test_estimate_corrupt_summary(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.summary"
        bad.write_text("this is not a lattice summary\n")
        code = main(["estimate", str(bad), "a(b)"])
        self._assert_usage_error(code, capsys)

    def test_explain_unparseable_query(self, summary_file, capsys):
        code = main(["explain", str(summary_file), "a(b"])
        self._assert_usage_error(code, capsys)

    def test_exact_unparseable_query(self, xml_file, capsys):
        code = main(["exact", str(xml_file), "((("])
        self._assert_usage_error(code, capsys)

    def test_stats_missing_summary(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.summary")])
        self._assert_usage_error(code, capsys)

    def test_stats_unparseable_query(self, summary_file, capsys):
        code = main(["stats", str(summary_file), "a(b"])
        self._assert_usage_error(code, capsys)

    def test_message_names_the_offender(self, summary_file, capsys):
        main(["estimate", str(summary_file), "a(b"])
        assert "a(b" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "trace"])
    def test_negative_workers(self, command, summary_file, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("laptop(brand)\nlaptop(price)\n")
        argv = [command, str(summary_file), "--batch", str(batch)]
        if command == "trace":
            argv += ["-o", str(tmp_path / "t.json")]
        code = main(argv + ["--workers", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--workers" in err
        assert err.count("\n") == 1


class TestObservabilityFlags:
    def test_estimate_metrics_json(self, summary_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "estimate",
                str(summary_file),
                "computer(laptops(laptop(brand,price)),desktops)",
                "--metrics-json",
                str(out),
            ]
        )
        assert code == 0
        assert "metrics written" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        lookups = snapshot["lattice_lookups_total"]
        assert lookups["type"] == "counter"
        assert sum(v["value"] for v in lookups["values"]) > 0
        assert snapshot["recursion_depth"]["count"] == 1
        assert snapshot["estimate_seconds"]["count"] == 1

    def test_estimate_trace(self, summary_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "estimate",
                str(summary_file),
                "computer(laptops(laptop(brand,price)),desktops)",
                "--trace",
                str(out),
            ]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert events
        assert all({"seq", "ts", "depth", "event"} <= set(e) for e in events)
        assert any(e["event"] == "lattice_lookup" for e in events)

    def test_summarize_metrics_json(self, xml_file, tmp_path):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "summarize",
                str(xml_file),
                "-o",
                str(tmp_path / "s.tsv"),
                "--metrics-json",
                str(out),
            ]
        )
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["lattice_build_seconds"]["count"] == 1
        assert "mining_candidates_total" in snapshot


class TestStats:
    def test_structure_only(self, summary_file, capsys):
        code = main(["stats", str(summary_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "level     : 4" in printed
        assert "patterns" in printed
        assert "complete" in printed

    def test_with_queries_table(self, summary_file, capsys):
        code = main(["stats", str(summary_file), "laptop(brand,price)"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "laptop(brand,price) ~= 2.00" in printed
        assert "estimation metrics" in printed
        assert "hit rate" in printed
        assert "recursion depth" in printed

    def test_json_format(self, summary_file, capsys):
        code = main(
            [
                "stats",
                str(summary_file),
                "laptop(brand,price)",
                "--format",
                "json",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        payload = printed[printed.index("{") :]
        snapshot = json.loads(payload)
        assert "lattice_lookups_total" in snapshot

    def test_prometheus_format(self, summary_file, capsys):
        from repro.obs import parse_prometheus_text

        code = main(
            [
                "stats",
                str(summary_file),
                "laptop(brand,price)",
                "--format",
                "prometheus",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        exposition = printed[printed.index("# TYPE") :]
        parsed = parse_prometheus_text(exposition)
        assert any(name.startswith("lattice_lookups") for name in parsed)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_help(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])


class TestEstimateExplainFlag:
    QUERY = "computer(laptops(laptop(brand,price)))"

    def test_explain_prints_execution_backed_trace(self, summary_file, capsys):
        code = main(
            [
                "estimate",
                str(summary_file),
                self.QUERY,
                "--estimator",
                "recursive",
                "--explain",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "estimate  :" in printed
        assert "s(t1) * s(t2) / s(common)" in printed
        assert "ms)" in printed  # span-sourced wall time on the root step
        assert "summary lookups" in printed

    def test_explain_json_is_parseable(self, summary_file, capsys):
        code = main(
            ["estimate", str(summary_file), self.QUERY, "--explain-json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        derivation = payload["derivation"]
        assert derivation["kind"] == "decomposition"
        assert derivation["children"]
        assert payload["estimate"] == derivation["estimate"]
        assert "wall_ms" in derivation

    def test_explain_matches_plain_estimate(self, summary_file, capsys):
        assert main(["estimate", str(summary_file), self.QUERY]) == 0
        plain = capsys.readouterr().out
        assert (
            main(["estimate", str(summary_file), self.QUERY, "--explain"]) == 0
        )
        explained = capsys.readouterr().out
        line = next(l for l in plain.splitlines() if l.startswith("estimate"))
        assert line in explained

    def test_explain_rejects_batch(self, summary_file, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("laptop(brand)\n")
        code = main(
            [
                "estimate",
                str(summary_file),
                "--batch",
                str(batch),
                "--explain",
            ]
        )
        assert code == 2
        assert "--explain" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["fixed", "markov"])
    def test_explain_rejects_non_recursive(self, summary_file, estimator, capsys):
        code = main(
            [
                "estimate",
                str(summary_file),
                self.QUERY,
                "--estimator",
                estimator,
                "--explain",
            ]
        )
        assert code == 2
        assert "recursive or voting" in capsys.readouterr().err


class TestTraceCommand:
    QUERY = "computer(laptops(laptop(brand,price)))"

    def test_single_query_writes_chrome_trace(self, summary_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["trace", str(summary_file), self.QUERY, "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "roots sampled" in printed
        events = json.loads(out.read_text())
        assert isinstance(events, list) and events
        names = {event["name"] for event in events}
        assert "estimate" in names
        for event in events:
            assert event["ph"] in ("X", "i")
            assert event["cat"] == "repro"

    def test_batch_with_workers_keeps_all_roots(
        self, summary_file, tmp_path, capsys
    ):
        batch = tmp_path / "queries.txt"
        batch.write_text("laptop(brand)\nlaptop(price)\n" + self.QUERY + "\n")
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                str(summary_file),
                "--batch",
                str(batch),
                "--workers",
                "2",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert "3/3 roots sampled" in capsys.readouterr().out
        events = json.loads(out.read_text())
        roots = [
            event
            for event in events
            if event["name"] == "estimate" and event["args"]["parent_id"] is None
        ]
        assert len(roots) == 3

    def test_sample_rate_zero_keeps_nothing(self, summary_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                str(summary_file),
                self.QUERY,
                "--sample-rate",
                "0",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert "0/1 roots sampled" in capsys.readouterr().out
        assert json.loads(out.read_text()) == []

    def test_bad_sample_rate_is_usage_error(self, summary_file, tmp_path, capsys):
        code = main(
            [
                "trace",
                str(summary_file),
                self.QUERY,
                "--sample-rate",
                "2",
                "-o",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == 2
        assert "--sample-rate" in capsys.readouterr().err

    def test_query_and_batch_conflict(self, summary_file, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("laptop(brand)\n")
        code = main(
            [
                "trace",
                str(summary_file),
                self.QUERY,
                "--batch",
                str(batch),
                "-o",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == 2

    def test_missing_query_and_batch(self, summary_file, tmp_path, capsys):
        code = main(
            ["trace", str(summary_file), "-o", str(tmp_path / "t.json")]
        )
        assert code == 2
        assert "missing query" in capsys.readouterr().err


class TestStatsLatencyQuantiles:
    def test_latency_line_printed(self, summary_file, capsys):
        code = main(["stats", str(summary_file), "laptop(brand,price)"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "latency p50/p90/p99" in printed


class TestSummarizeConstructionPaths:
    def test_stream_writes_identical_file(self, xml_file, tmp_path, capsys):
        serial, streamed = tmp_path / "serial.tl", tmp_path / "streamed.tl"
        assert main(["summarize", str(xml_file), "-o", str(serial)]) == 0
        assert (
            main(["summarize", str(xml_file), "-o", str(streamed), "--stream"]) == 0
        )
        assert serial.read_bytes() == streamed.read_bytes()
        assert "streamed" in capsys.readouterr().out


class TestMerge:
    def test_merges_summaries(self, summary_file, tmp_path, capsys):
        out = tmp_path / "merged.tl"
        code = main(
            ["merge", str(summary_file), str(summary_file), "-o", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "merged 2 summaries" in capsys.readouterr().out

    def test_merged_counts_double(self, summary_file, tmp_path):
        from repro.core.lattice import LatticeSummary

        out = tmp_path / "merged.tl"
        assert (
            main(["merge", str(summary_file), str(summary_file), "-o", str(out)])
            == 0
        )
        one = dict(LatticeSummary.load(summary_file).patterns())
        two = dict(LatticeSummary.load(out).patterns())
        assert two == {key: 2 * count for key, count in one.items()}

    def test_single_input_is_a_usage_error(self, summary_file, tmp_path, capsys):
        code = main(["merge", str(summary_file), "-o", str(tmp_path / "m.tl")])
        assert code == 2
        assert "at least two" in capsys.readouterr().err

    def test_level_mismatch_is_a_usage_error(
        self, xml_file, summary_file, tmp_path, capsys
    ):
        other = tmp_path / "k3.tl"
        assert main(["summarize", str(xml_file), "-k", "3", "-o", str(other)]) == 0
        code = main(
            ["merge", str(summary_file), str(other), "-o", str(tmp_path / "m.tl")]
        )
        assert code == 2
        assert "cannot merge" in capsys.readouterr().err

    def test_missing_input_is_a_usage_error(self, summary_file, tmp_path, capsys):
        code = main(
            [
                "merge",
                str(summary_file),
                str(tmp_path / "nope.tl"),
                "-o",
                str(tmp_path / "m.tl"),
            ]
        )
        assert code == 2
