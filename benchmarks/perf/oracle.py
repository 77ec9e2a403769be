"""Checking responses against the ``naive`` oracle, and digesting them.

``naive`` and ``fx-tm`` sum a subscription's sub-scores in different
orders, so their scores may differ in the last ULP.  Results therefore
compare position by position with ``math.isclose(rel_tol=1e-9)``, and
sids may only trade places among entries tied within that tolerance.  A
tie group cut off by ``k`` may hold different sids: either side could
have kept any member of the group.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable, List, Sequence

from repro.core.controller import RequestKind
from repro.core.results import MatchResult

__all__ = ["result_lists", "same_results", "same_response", "digest"]

_REL_TOL = 1e-9


def result_lists(response: Any) -> List[List[MatchResult]]:
    """The result lists a response carries: one per matched event."""
    if response.request.kind is RequestKind.BATCH:
        return list(response.batch_results)
    if response.request.kind is RequestKind.MATCH:
        return [list(response.results)]
    return []


def same_results(got: Sequence[MatchResult], want: Sequence[MatchResult], k: int) -> bool:
    """Whether ``got`` equals the oracle's ``want`` up to score rounding."""
    if len(got) != len(want):
        return False
    position = 0
    while position < len(want):
        end = position + 1
        while end < len(want) and math.isclose(
            want[end].score, want[end - 1].score, rel_tol=_REL_TOL
        ):
            end += 1
        for mine, theirs in zip(got[position:end], want[position:end]):
            if not math.isclose(mine.score, theirs.score, rel_tol=_REL_TOL):
                return False
        cut_by_k = end == len(want) == k
        group = {result.sid for result in got[position:end]}
        if not cut_by_k and group != {result.sid for result in want[position:end]}:
            return False
        position = end
    return True


def same_response(got: Any, want: Any) -> bool:
    """Whether two responses to the same request agree."""
    if got.ok != want.ok:
        return False
    k = got.request.k
    got_lists, want_lists = result_lists(got), result_lists(want)
    return len(got_lists) == len(want_lists) and all(
        same_results(mine, theirs, k) for mine, theirs in zip(got_lists, want_lists)
    )


def digest(responses: Iterable[Any]) -> str:
    """SHA-256 over the exact outcome of each response, in order."""
    sha = hashlib.sha256()
    for response in responses:
        if not response.ok:
            sha.update(f"error {response.error}\n".encode())
            continue
        for results in result_lists(response):
            sha.update(" ".join(f"{r.sid}:{r.score!r}" for r in results).encode())
            sha.update(b";")
        sha.update(b"ok\n")
    return sha.hexdigest()
