"""The oracle comparison: ULP-tolerant, tie-aware, and not fooled by edits."""

from repro.core.controller import LocalController, Response
from repro.core.results import MatchResult

from oracle import digest, same_response, same_results


def _match_response(results, k=3):
    """A MATCH response carrying ``results``."""
    request = LocalController.parse_request(f"MATCH {k} a: [1 .. 2]")
    return Response(ok=True, request=request, results=list(results))


WANT = [MatchResult("a", 3.0), MatchResult("b", 2.0), MatchResult("c", 1.0)]


def test_identical_and_last_ulp_results_agree():
    assert same_results(WANT, WANT, k=3)
    nudged = [MatchResult(r.sid, r.score * (1 + 2e-16)) for r in WANT]
    assert same_results(nudged, WANT, k=3)


def test_perturbed_responses_are_caught():
    want = _match_response(WANT)
    wrong_score = _match_response([WANT[0], MatchResult("b", 2.001), WANT[2]])
    wrong_sid = _match_response([WANT[0], MatchResult("z", 2.0), WANT[2]])
    missing = _match_response(WANT[:2])
    swapped = _match_response([WANT[1], WANT[0], WANT[2]])
    for got in (wrong_score, wrong_sid, missing, swapped):
        assert not same_response(got, want)
    assert same_response(_match_response(WANT), want)


def test_sids_may_trade_places_only_within_a_tie():
    tied = [MatchResult("a", 2.0), MatchResult("b", 2.0), MatchResult("c", 1.0)]
    reordered = [tied[1], tied[0], tied[2]]
    assert same_results(reordered, tied, k=5)


def test_a_tie_cut_by_k_may_keep_other_members():
    want = [MatchResult("a", 3.0), MatchResult("b", 1.0), MatchResult("c", 1.0)]
    got = [MatchResult("a", 3.0), MatchResult("b", 1.0), MatchResult("d", 1.0)]
    assert same_results(got, want, k=3)
    assert not same_results(got, want, k=4)


def test_digest_is_exact():
    base = [_match_response(WANT)]
    nudged = [_match_response([MatchResult(r.sid, r.score * (1 + 2e-16)) for r in WANT])]
    assert digest(base) == digest([_match_response(WANT)])
    assert digest(base) != digest(nudged)
