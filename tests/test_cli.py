"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 30
        assert args.protocol == "byzcast"

    def test_invalid_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "pigeon"])


class TestExperimentsCommand:
    def test_lists_all_experiments(self):
        code, output = run_cli(["experiments"])
        assert code == 0
        for eid in ("E1", "E10", "A5"):
            assert eid in output
        assert "benchmarks/" in output


class TestRunCommand:
    def test_small_run_reports(self):
        code, output = run_cli([
            "run", "--n", "10", "--messages", "2", "--seed", "3",
            "--warmup", "5", "--drain", "8", "--interval", "1.0"])
        assert code == 0
        assert "delivery" in output
        assert "bytes/broadcast" in output
        assert "overlay:" in output
        assert "gossip" in output

    def test_run_with_mute_nodes(self):
        code, output = run_cli([
            "run", "--n", "12", "--mute", "2", "--messages", "2",
            "--seed", "3", "--warmup", "5", "--drain", "10",
            "--interval", "1.0"])
        assert code == 0
        assert "byz" in output

    def test_flooding_run(self):
        code, output = run_cli([
            "run", "--protocol", "flooding", "--n", "10", "--messages", "2",
            "--seed", "3", "--warmup", "2", "--drain", "5",
            "--interval", "1.0"])
        assert code == 0
        assert "flooding" in output


class TestSweepCommand:
    def test_sweep_n(self):
        code, output = run_cli([
            "sweep", "--param", "n", "--values", "8,12", "--seeds", "1",
            "--messages", "2", "--warmup", "5", "--drain", "8",
            "--interval", "1.0"])
        assert code == 0
        lines = [line for line in output.splitlines() if line.strip()]
        assert len(lines) >= 4  # header + separator + 2 rows

    def test_sweep_mute(self):
        code, output = run_cli([
            "sweep", "--param", "mute", "--values", "0,2", "--seeds", "1",
            "--n", "12", "--messages", "2", "--warmup", "5",
            "--drain", "10", "--interval", "1.0"])
        assert code == 0
        assert "mute" in output


class TestCompareCommand:
    def test_compare_all_protocols(self):
        code, output = run_cli([
            "compare", "--n", "10", "--messages", "2", "--seed", "3",
            "--warmup", "5", "--drain", "8", "--interval", "1.0"])
        assert code == 0
        for protocol in ("byzcast", "flooding", "overlay_only",
                         "multi_overlay"):
            assert protocol in output
        assert "invariant_violations" in output


class TestChaosOptions:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.chaos is None
        assert args.oracle is False

    def test_oracle_run_reports_zero_violations(self):
        code, output = run_cli([
            "run", "--n", "10", "--messages", "2", "--seed", "3",
            "--warmup", "5", "--drain", "8", "--interval", "1.0",
            "--oracle"])
        assert code == 0
        assert "invariant violations: 0" in output

    def test_chaos_run_applies_schedule(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"events": ['
            '{"time": 1.0, "node": 8, "action": "mute"},'
            '{"time": 4.0, "node": 8, "action": "recover"}]}')
        code, output = run_cli([
            "run", "--n", "10", "--messages", "2", "--seed", "3",
            "--warmup", "5", "--drain", "8", "--interval", "1.0",
            "--chaos", str(spec)])
        assert code == 0
        assert "chaos: 2 fault events applied" in output
        assert "invariant violations: 0" in output

    def test_without_oracle_no_violation_report(self):
        code, output = run_cli([
            "run", "--n", "10", "--messages", "2", "--seed", "3",
            "--warmup", "5", "--drain", "8", "--interval", "1.0"])
        assert code == 0
        assert "invariant violations" not in output


@pytest.mark.obs
class TestObservabilityOptions:
    RUN = ["run", "--n", "10", "--messages", "2", "--seed", "3",
           "--warmup", "5", "--drain", "8", "--interval", "1.0"]

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One observed CLI run shared by the trace-command tests."""
        directory = tmp_path_factory.mktemp("cli-trace")
        trace = str(directory / "trace.jsonl")
        csv = str(directory / "series.csv")
        code, output = run_cli(self.RUN + ["--trace-out", trace,
                                           "--metrics-out", csv])
        assert code == 0
        return trace, csv, output

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.observe is False
        assert args.trace_out is None
        assert args.metrics_out is None

    def test_observe_flag_prints_summary(self):
        code, output = run_cli(self.RUN + ["--observe"])
        assert code == 0
        assert "observability:" in output
        assert "spans" in output and "metric" in output
        assert "top phases:" in output

    def test_trace_out_implies_observe_and_writes_files(self, traced_run):
        trace, csv, output = traced_run
        assert "observability:" in output
        assert f"-> {trace}" in output
        assert f"-> {csv}" in output
        with open(csv) as handle:
            header = handle.readline()
        assert header.startswith("time,")
        assert "queue_depth_total" in header

    def test_trace_path_reconstructs_hops(self, traced_run):
        trace, _, _ = traced_run
        code, output = run_cli(["trace", "path", "0:1", trace])
        assert code == 0
        assert "originated by node 0" in output
        assert "deliver -> node" in output
        assert "outcomes:" in output
        assert "delivered=" in output

    def test_trace_path_causal_chain_option(self, traced_run):
        trace, _, _ = traced_run
        code, output = run_cli(["trace", "path", "0:1", trace,
                                "--node", "5"])
        assert code == 0
        assert "causal chain to node 5:" in output
        assert "origin" in output

    def test_trace_path_unknown_message(self, traced_run):
        trace, _, _ = traced_run
        code, output = run_cli(["trace", "path", "9:9", trace])
        assert code == 0
        assert "no origin span" in output

    def test_trace_latency_uses_meta_bound(self, traced_run):
        trace, _, _ = traced_run
        code, output = run_cli(["trace", "latency", trace])
        assert code == 0
        assert "deliveries of" in output
        assert "§3.5 bound" in output
        assert "0 violations" in output

    def test_trace_latency_tight_bound_flags_violations(self, traced_run):
        trace, _, _ = traced_run
        code, output = run_cli(["trace", "latency", trace,
                                "--bound", "0.000001"])
        assert code == 0
        assert "0 violations" not in output
        assert "-> node" in output    # violation rows carry span pointers

    def test_trace_timeline(self, traced_run):
        trace, _, _ = traced_run
        code, output = run_cli(["trace", "timeline", trace])
        assert code == 0
        assert "node 0" in output and "spans" in output

    def test_trace_export_and_validate(self, traced_run, tmp_path):
        trace, _, _ = traced_run
        chrome = str(tmp_path / "chrome.json")
        code, output = run_cli(["trace", "export", trace,
                                "--chrome", chrome])
        assert code == 0
        assert f"-> {chrome}" in output
        code, output = run_cli(["trace", "validate", chrome])
        assert code == 0
        assert "valid trace_event document" in output

    def test_trace_commands_read_a_baseline_run(self, tmp_path):
        """Every protocol emits origin/sign/deliver spans, so the trace
        analyzers work on the comparators too (flooding used to report
        "0 deliveries of 0 messages" on a run that delivered 100 %)."""
        trace = str(tmp_path / "flooding.jsonl")
        code, _ = run_cli(["run", "--protocol", "flooding", "--n", "14",
                           "--messages", "2", "--seed", "3",
                           "--trace-out", trace])
        assert code == 0
        code, output = run_cli(["trace", "latency", trace])
        assert code == 0
        assert output.startswith("26 deliveries of 2 messages")
        code, output = run_cli(["trace", "path", "0:1", trace])
        assert code == 0
        assert output.startswith("0:1: originated by node 0")

    def test_arena_run_writes_the_trace_and_series(self, tmp_path):
        """``arena run`` is ``run``: same report, same output files."""
        trace = str(tmp_path / "arena.jsonl")
        csv = str(tmp_path / "arena.csv")
        code, output = run_cli(["arena", "run", "--protocol", "flooding",
                                "--n", "14", "--messages", "2", "--seed", "3",
                                "--trace-out", trace, "--metrics-out", csv])
        assert code == 0
        assert f"-> {trace}" in output and f"-> {csv}" in output
        code, output = run_cli(["trace", "latency", trace])
        assert code == 0
        assert output.startswith("26 deliveries of 2 messages")
        with open(csv) as handle:
            assert handle.readline().startswith("time,")

    @pytest.mark.parametrize("command", [
        ["sweep", "--param", "n", "--values", "8"],
        ["compare"],
        ["arena", "compare"]])
    @pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
    def test_multi_run_commands_reject_output_files(self, command, flag,
                                                    tmp_path, capsys):
        """A sweep or comparison has no single trace to write; the flags
        are usage errors there, not silently dropped."""
        with pytest.raises(SystemExit) as exit_info:
            main(command + [flag, str(tmp_path / "x")], out=io.StringIO())
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_trace_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        code, output = run_cli(["trace", "validate", str(bad)])
        assert code == 1
        assert "invalid ph" in output


@pytest.mark.fuzz
class TestFuzzCommands:
    import os as _os
    #: The committed reproducer corpus at the repo root.
    CORPUS = _os.path.join(_os.path.dirname(__file__), _os.pardir,
                           "corpus")

    def test_fuzz_run_defaults(self):
        args = build_parser().parse_args(["fuzz", "run"])
        assert args.iterations == 200
        assert args.runner == "experiment"
        assert args.fuzz_seed == 1

    def test_fuzz_rejects_unknown_runner(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "run", "--runner", "broken_nothing"])

    def test_fuzz_replay_committed_corpus(self):
        code, output = run_cli(["fuzz", "replay", self.CORPUS])
        assert code == 0
        assert "reproduced" in output
        assert "LOST" not in output
        assert "forged_payload" in output

    def test_fuzz_replay_missing_corpus(self, tmp_path):
        code, output = run_cli(["fuzz", "replay", str(tmp_path / "empty")])
        assert code == 1
        assert "no corpus entries" in output

    def test_fuzz_run_finds_planted_bug_and_writes_corpus(self, tmp_path):
        corpus = tmp_path / "found"
        report = tmp_path / "report.json"
        code, output = run_cli(
            ["fuzz", "run", "--runner", "broken_recovery",
             "--iterations", "48", "--fuzz-seed", "1",
             "--stop-after-failures", "1",
             "--corpus", str(corpus), "--report", str(report)])
        assert code == 0
        assert "duplicate_delivery/forged_payload" in output
        assert list(corpus.glob("*.json"))
        assert report.exists()

    def test_fuzz_shrink_corpus_entry(self):
        import os
        entries = sorted(
            p for p in os.listdir(self.CORPUS) if p.endswith(".json"))
        assert entries
        code, output = run_cli(
            ["fuzz", "shrink", os.path.join(self.CORPUS, entries[0]),
             "--budget", "40"])
        assert code == 0
        assert "-> " in output and "events" in output
