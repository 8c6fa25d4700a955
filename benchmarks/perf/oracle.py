"""The answer oracle: an in-process matcher on the independent representation.

The daemon answers from a compiled :class:`SynonymArtifact` with embedded
priors; the oracle answers from the plain :class:`SynonymDictionary` and
the live click log the artifact was compiled from.  Every wire response
must equal the oracle's payload exactly.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.clicklog.log import ClickLog
from repro.matching.dictionary import SynonymDictionary
from repro.matching.matcher import QueryMatcher
from repro.matching.resolver import MatchResolver
from repro.scenarios.workload import Request, click_log_from_rows, dictionary_from_rows
from repro.server.daemon import match_payload, ranked_payload

__all__ = ["Oracle", "check_response"]


class Oracle:
    """Expected ``/match`` and ``/resolve`` payloads for one catalog generation."""

    def __init__(self, dictionary: SynonymDictionary, click_log: ClickLog) -> None:
        self._matcher = QueryMatcher(dictionary)
        self._resolver = MatchResolver(dictionary, click_log=click_log)
        self._resolved: dict[str, dict[str, Any]] = {}

    @classmethod
    def from_rows(cls, rows: Sequence[dict[str, Any]]) -> "Oracle":
        return cls(dictionary_from_rows(rows), click_log_from_rows(rows))

    def _resolve(self, query: str) -> dict[str, Any]:
        payload = self._resolved.get(query)
        if payload is None:
            match = self._matcher.match(query)
            payload = match_payload(match)
            payload["ranked"] = ranked_payload(self._resolver.rank(match))
            self._resolved[query] = payload
        return payload

    def expected(self, endpoint: str, query: str) -> dict[str, Any]:
        payload = self._resolve(query)
        if endpoint == "resolve":
            return payload
        return {key: value for key, value in payload.items() if key != "ranked"}

    def prime(self, requests: Iterable[Request]) -> None:
        """Compute every answer now, so checks later cost dictionary lookups."""
        for request in requests:
            for query in request.queries:
                self._resolve(query)


def check_response(request: Request, response: Any, oracles: Sequence[Oracle]) -> bool:
    """True when every result equals one allowed oracle's payload.

    *oracles* has one entry in steady state and two while a published
    delta is not yet known to be visible: a response may then come from
    the last-visible or the just-published generation, nothing else.  A
    batch is matched query by query against the live state, so it may
    straddle the swap.
    """
    results = response if request.batched else [response]
    if not isinstance(results, list) or len(results) != len(request.queries):
        return False
    return all(
        any(oracle.expected(request.endpoint, query) == result for oracle in oracles)
        for query, result in zip(request.queries, results)
    )
