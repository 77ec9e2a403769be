"""The local controller: request parsing and processing (paper 6.1)."""

import pytest

from repro.core.controller import LocalController, Request, RequestKind
from repro.core.matcher import FXTMMatcher
from repro.core.parser import ParseError


def controller(**kwargs):
    return LocalController(FXTMMatcher(**kwargs))


class TestRequestParsing:
    def test_add(self):
        request = LocalController.parse_request("ADD s1 age in [1, 2] : 2.0")
        assert request.kind is RequestKind.ADD
        assert request.sid == "s1"
        assert request.predicate == "age in [1, 2] : 2.0"
        assert request.budget is None

    def test_add_with_budget_clause(self):
        request = LocalController.parse_request(
            "ADD s1 age in [1,2] BUDGET 100 WINDOW 5000"
        )
        assert request.budget is not None
        assert request.budget.budget == 100.0
        assert request.budget.window_length == 5000.0
        assert request.predicate == "age in [1,2]"

    def test_cancel(self):
        request = LocalController.parse_request("CANCEL s1")
        assert request.kind is RequestKind.CANCEL
        assert request.sid == "s1"

    def test_match(self):
        request = LocalController.parse_request("MATCH 10 age: [1..2]")
        assert request.kind is RequestKind.MATCH
        assert request.k == 10
        assert request.event_text == "age: [1..2]"

    def test_case_insensitive_commands(self):
        assert LocalController.parse_request("add s1 a in [1,2]").kind is RequestKind.ADD
        assert LocalController.parse_request("match 1 a: 1").kind is RequestKind.MATCH

    def test_unknown_command_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("FROB s1")

    def test_empty_line_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("   ")

    def test_add_without_predicate_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("ADD s1")

    def test_cancel_without_sid_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("CANCEL ")

    def test_batch(self):
        request = LocalController.parse_request("BATCH 4 a: 1 ; a: 2 ;b: 3")
        assert request.kind is RequestKind.BATCH
        assert request.k == 4
        assert request.event_texts == ("a: 1", "a: 2", "b: 3")

    def test_batch_single_event(self):
        request = LocalController.parse_request("BATCH 2 a: 1")
        assert request.event_texts == ("a: 1",)

    def test_batch_with_bad_k_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("BATCH nope a: 1")

    def test_batch_without_events_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("BATCH 3")
        with pytest.raises(ParseError):
            LocalController.parse_request("BATCH 3   ")

    def test_batch_empty_segment_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("BATCH 3 a: 1 ; ; b: 2")

    def test_match_with_bad_k_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("MATCH ten a: 1")

    def test_match_without_event_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("MATCH 5")

    def test_malformed_budget_clause_rejected(self):
        with pytest.raises(ParseError):
            LocalController.parse_request("ADD s1 a in [1,2] BUDGET 100")
        with pytest.raises(ParseError):
            LocalController.parse_request("ADD s1 a in [1,2] BUDGET x WINDOW 10")


class TestProcessing:
    def test_add_then_match(self):
        c = controller()
        assert c.submit("ADD s1 a in [0, 10] : 2.0").ok
        response = c.submit("MATCH 5 a: 5")
        assert response.ok
        assert [r.sid for r in response.results] == ["s1"]

    def test_cancel_then_match_empty(self):
        c = controller()
        c.submit("ADD s1 a in [0, 10]")
        assert c.submit("CANCEL s1").ok
        assert c.submit("MATCH 5 a: 5").results == []

    def test_batch_matches_in_order(self):
        c = controller()
        c.submit("ADD s1 a in [0, 10] : 2.0")
        c.submit("ADD s2 b in [0, 10] : 1.0")
        response = c.submit("BATCH 5 a: 5 ; b: 5 ; c: 5")
        assert response.ok
        assert [[r.sid for r in results] for results in response.batch_results] == [
            ["s1"], ["s2"], []
        ]
        assert response.results == []  # per-event results live in batch_results

    def test_batch_equals_sequence_of_matches(self):
        c = controller()
        c.submit("ADD s1 a in [0, 10] : 2.0")
        c.submit("ADD s2 a in [3, 4] : 1.0")
        batched = c.submit("BATCH 2 a: 3 ; a: 7").batch_results
        assert batched == [
            c.submit("MATCH 2 a: 3").results,
            c.submit("MATCH 2 a: 7").results,
        ]

    def test_batch_bad_event_fails_gracefully(self):
        c = controller()
        response = c.submit("BATCH 2 a: 5 ; not an event ???")
        assert not response.ok
        assert response.error

    def test_duplicate_add_fails_gracefully(self):
        c = controller()
        c.submit("ADD s1 a in [0, 10]")
        response = c.submit("ADD s1 a in [0, 10]")
        assert not response.ok
        assert "s1" in response.error

    def test_cancel_unknown_fails_gracefully(self):
        response = controller().submit("CANCEL ghost")
        assert not response.ok

    def test_parse_error_returns_failed_response(self):
        response = controller().submit("ADD s1 a ???")
        assert not response.ok
        assert response.error

    def test_counters(self):
        c = controller()
        c.submit("ADD s1 a in [0, 10]")
        c.submit("CANCEL ghost")
        c.submit("completely bogus")
        assert c.requests_processed == 2  # the bogus line never parsed
        assert c.requests_failed == 2

    def test_budget_clause_attaches_budget(self):
        from repro.core.budget import BudgetTracker

        matcher = FXTMMatcher(budget_tracker=BudgetTracker())
        c = LocalController(matcher)
        assert c.submit("ADD s1 a in [0,10] BUDGET 50 WINDOW 1000").ok
        assert "s1" in matcher.budget_tracker

    def test_run_stream_skips_blanks_and_comments(self):
        c = controller()
        lines = [
            "# subscription stream",
            "",
            "ADD s1 a in [0, 10] : 1.0",
            "   ",
            "MATCH 1 a: 5",
        ]
        responses = list(c.run(lines))
        assert len(responses) == 2
        assert all(r.ok for r in responses)
        assert responses[1].results[0].sid == "s1"

    def test_structured_request_api(self):
        c = controller()
        response = c.process(Request(RequestKind.ADD, sid="s9", predicate="b in [1, 4]"))
        assert response.ok
        response = c.process(Request(RequestKind.MATCH, k=1, event_text="b: 2"))
        assert response.results[0].sid == "s9"
