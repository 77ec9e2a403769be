"""The command-line front end."""

import io

import pytest

from repro.cli import build_parser, main, serve
from repro.core.controller import LocalController
from repro.core.matcher import FXTMMatcher


REQUESTS = """\
ADD ad-1 age in [18, 24] : 2.0 and state in {Indiana} : 1.0
ADD ad-2 age in [30, 50] : 1.0
MATCH 5 age: [20 .. 30], state: Indiana
CANCEL ad-2
MATCH 1 age: [35 .. 40]
"""


class TestServe:
    def test_responses_one_per_request(self):
        controller = LocalController(FXTMMatcher(prorate=True))
        out = io.StringIO()
        failures = serve(REQUESTS.splitlines(), controller, out)
        lines = out.getvalue().splitlines()
        assert failures == 0
        assert lines[0] == "ok ADD ad-1"
        assert lines[1] == "ok ADD ad-2"
        assert lines[2].startswith("match [ad-1=")
        assert lines[3] == "ok CANCEL ad-2"
        assert lines[4] == "match []"

    def test_batch_renders_one_line_per_event(self):
        controller = LocalController(FXTMMatcher(prorate=True))
        out = io.StringIO()
        requests = [
            "ADD ad-1 age in [18, 24] : 2.0",
            "BATCH 5 age: [20 .. 30] ; age: [40 .. 50]",
        ]
        failures = serve(requests, controller, out)
        lines = out.getvalue().splitlines()
        assert failures == 0
        assert lines[1].startswith("batch[0] [ad-1=")
        assert lines[2] == "batch[1] []"

    def test_failures_counted_and_reported(self):
        controller = LocalController(FXTMMatcher())
        out = io.StringIO()
        failures = serve(["CANCEL ghost", "BOGUS"], controller, out)
        assert failures == 2
        assert out.getvalue().count("error") == 2

    def test_unhandled_request_kind_fails_loudly(self):
        # serve()'s dispatch is exhaustive over RequestKind: a protocol
        # verb without a branch is an error, not a bogus "ok".
        from types import SimpleNamespace

        future_kind = SimpleNamespace(value="future")
        response = SimpleNamespace(
            ok=True, request=SimpleNamespace(kind=future_kind, sid=None)
        )
        stub = SimpleNamespace(run=lambda lines: [response])
        out = io.StringIO()
        failures = serve([], stub, out)
        assert failures == 1
        assert out.getvalue() == "error unhandled request kind future\n"


class TestMain:
    def test_stdin_replay(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(REQUESTS))
        assert main(["--prorate"]) == 0
        out = capsys.readouterr().out
        assert "ok ADD ad-1" in out
        assert "match [ad-1=" in out

    def test_request_file(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text(REQUESTS)
        assert main(["--prorate", str(path)]) == 0
        assert "match [ad-1=" in capsys.readouterr().out

    def test_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("CANCEL nobody\n")
        assert main([str(path)]) == 1

    def test_save_and_load_round_trip(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("ADD ad-1 age in [18, 24] : 2.0\n")
        snapshot = tmp_path / "state.jsonl"
        assert main(["--save", str(snapshot), str(requests)]) == 0
        assert snapshot.exists()

        query = tmp_path / "query.txt"
        query.write_text("MATCH 1 age: [20 .. 22]\n")
        assert main(["--load", str(snapshot), str(query)]) == 0
        captured = capsys.readouterr()
        assert "match [ad-1=" in captured.out
        assert "loaded 1 subscriptions" in captured.err

    def test_explicit_serve_subcommand(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["serve", str(requests)]) == 0
        assert "match [a=" in capsys.readouterr().out

    def test_inline_metrics_and_trace_requests(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text(
            "ADD a x in [1, 2]\nMATCH 1 x: 1\nMETRICS prom\nTRACE text\n"
        )
        assert main(["serve", str(requests)]) == 0
        out = capsys.readouterr().out
        assert 'repro_matches_total{algorithm="fx-tm",backend="python"} 1' in out
        # The TRACE response replays the spans of the preceding MATCH.
        assert "fxtm.match" in out

    def test_algorithm_selection(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        for algorithm in ("be-star", "fagin", "naive"):
            assert main(["--algorithm", algorithm, str(requests)]) == 0
            assert "match [a=" in capsys.readouterr().out

    def test_budget_flag(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text(
            "ADD a x in [1, 2] BUDGET 10 WINDOW 100\nMATCH 1 x: 1\n"
        )
        assert main(["--budget", str(requests)]) == 0
        assert "match [a=" in capsys.readouterr().out

    def test_parser_help_smoke(self):
        parser = build_parser()
        assert "fx-tm" in parser.format_help()


class TestMetricsSubcommand:
    def test_json_output_is_valid_json(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["metrics", str(requests)]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        family = document["repro_matches_total"]
        assert family["type"] == "counter"
        assert family["values"][0]["value"] == 1.0

    def test_prom_output_parses(self, tmp_path, capsys):
        from repro.obs import parse_prom_text

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["metrics", "--format", "prom", str(requests)]) == 0
        out = capsys.readouterr().out
        parsed = parse_prom_text(out)
        assert "repro_matches_total" in parsed
        assert "repro_match_seconds" in parsed

    def test_request_errors_go_to_stderr_not_stdout(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("CANCEL ghost\nMATCH 1 x: 1\n")
        assert main(["metrics", str(requests)]) == 1
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout still parses cleanly
        assert "error" in captured.err


class TestTraceSubcommand:
    def test_text_trace_shows_pipeline_spans(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["trace", str(requests)]) == 0
        out = capsys.readouterr().out
        assert "fxtm.match" in out
        assert "topk.select" in out

    def test_json_trace_parses(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["trace", "--format", "json", str(requests)]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["name"] == "match"

    def test_no_match_request_fails(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\n")
        assert main(["trace", str(requests)]) == 1
        assert "no traces" in capsys.readouterr().err


class TestServeMetricsSubcommand:
    def test_once_scrape_is_parseable(self, tmp_path, capsys):
        import json

        from repro.obs import parse_prom_text

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\nMATCH 1 x: 2\n")
        assert main(["serve-metrics", "--once", str(requests)]) == 0
        scrape = json.loads(capsys.readouterr().out)
        assert scrape["healthz"] == '{"status": "ok"}'
        parsed = parse_prom_text(scrape["metrics"])
        assert "repro_matches_total" in parsed
        assert "repro_heat_probes_total" in parsed
        heat = json.loads(scrape["heat"])
        assert heat["hot_attributes"] == ["x"]
        assert heat["attributes"][0]["probes"] == 2
        exemplars = json.loads(scrape["exemplars"])
        assert exemplars["observed"] == 2

    def test_once_with_profile_includes_profiler_surface(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["serve-metrics", "--once", "--profile", str(requests)]) == 0
        scrape = json.loads(capsys.readouterr().out)
        profile = json.loads(scrape["profile"])
        assert profile["running"] is False  # stopped before the scrape
        assert "phases" in profile

    def test_once_without_profile_omits_profiler_surface(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\n")
        assert main(["serve-metrics", "--once", str(requests)]) == 0
        assert "profile" not in json.loads(capsys.readouterr().out)

    def test_request_errors_fail_the_once_scrape(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("CANCEL ghost\n")
        assert main(["serve-metrics", "--once", str(requests)]) == 1
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is still one clean document
        assert "error" in captured.err


class TestExemplarsSubcommand:
    def test_text_listing(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\nMATCH 1 x: 1\n")
        assert main(["exemplars", str(requests)]) == 0
        out = capsys.readouterr().out
        assert "observed" in out
        assert "root=match" in out

    def test_json_snapshot(self, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text("ADD a x in [1, 2]\nMATCH 1 x: 1\nMATCH 1 x: 1\n")
        assert main(
            ["exemplars", "--format", "json", "--quantile", "0.5", str(requests)]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["observed"] == 2
        assert document["quantile"] == 0.5
        assert document["retained"] >= 1
        # Captured exemplars carry the traced match tree.
        assert document["exemplars"][0]["trace"]["name"] == "match"


class TestModuleInvocation:
    def test_python_dash_m_entry_point(self, tmp_path):
        """`python -m repro.cli` is the documented deployment surface."""
        import subprocess
        import sys

        requests = tmp_path / "r.txt"
        requests.write_text("ADD a x in [1, 2] : 2.0\nMATCH 1 x: 1\n")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--prorate", str(requests)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "ok ADD a" in completed.stdout
        assert "match [a=2.000]" in completed.stdout

    def test_run_all_module_listing(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench.run_all", "--list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "fig7" in completed.stdout
