"""Random walk on the click graph (the "Walk(0.8)" rows of Table I).

The paper's second baseline runs the random-walk query-similarity method of
Craswell & Szummer ("Random walks on the click graph", SIGIR 2007), in the
form used by Fuxman et al. for keyword generation, with default parameters
— reported as ``Walk(0.8)``, i.e. a lazy walk whose self-transition
probability is 0.8.

The walk operates entirely on the bipartite query–URL click graph: starting
from the input value *as a query node*, probability mass alternates between
query and URL nodes (with probability :data:`SELF_TRANSITION` of staying put at
every step).  After a fixed number of steps, the probability mass that
settled on *other* query nodes ranks candidate synonyms.

The structural weakness the paper points out falls straight out of the
construction: if the canonical string was never issued as a query (common
for verbose camera names), there is no start node and the method returns
nothing.
"""

from __future__ import annotations

from typing import Iterable

from repro.clicklog.log import ClickLog
from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.text.normalize import normalize

__all__ = ["RandomWalkSynonymFinder", "SELF_TRANSITION"]


SELF_TRANSITION = 0.8
"""Probability of staying on the current node at each step (the paper's
Walk(0.8) setting)."""

STEPS = 5
"""Number of walk steps (Craswell & Szummer use short walks)."""

# How much of the settled probability mass is reported as synonyms.
PROBABILITY_THRESHOLD = 0.06
MAX_SYNONYMS = 8


class RandomWalkSynonymFinder:
    """Synonyms via a lazy random walk on the click graph.

    The graph is the :class:`ClickLog` itself: nodes are its queries and
    URLs, edge weights its click counts.
    """

    def __init__(self, click_log: ClickLog) -> None:
        self.click_log = click_log

    def _from_query(self, query: str) -> dict[str, float]:
        """Click-weighted transition distribution query → URLs."""
        total = self.click_log.total_clicks(query)
        return {
            url: clicks / total
            for url, clicks in self.click_log.clicks_by_url(query).items()
        }

    def _from_url(self, url: str) -> dict[str, float]:
        """Click-weighted transition distribution URL → queries."""
        # sorted: a set's order varies between processes, and the order mass
        # arrives in decides the order the float sums below are taken in.
        weights = {
            query: self.click_log.clicks(query, url)
            for query in sorted(self.click_log.queries_clicking(url))
        }
        total = sum(weights.values())
        return {query: clicks / total for query, clicks in weights.items()}

    # ------------------------------------------------------------------ #
    # The walk
    # ------------------------------------------------------------------ #

    def walk_distribution(self, start_query: str) -> dict[str, float]:
        """Probability mass over *query nodes* after a :data:`STEPS`-step walk.

        The walk alternates between the query side and the URL side of the
        bipartite graph; at every step the walker stays put with probability
        :data:`SELF_TRANSITION` and otherwise follows a click-weighted edge.
        Returns an empty dict when the start query is not in the graph.
        """
        start = normalize(start_query)
        if start not in self.click_log:
            return {}
        stay = SELF_TRANSITION
        move = 1.0 - stay

        query_mass: dict[str, float] = {start: 1.0}
        url_mass: dict[str, float] = {}
        for _step in range(STEPS):
            next_query: dict[str, float] = {}
            next_url: dict[str, float] = {}
            # Mass on query nodes: part stays, part flows to URLs.
            for query, mass in query_mass.items():
                next_query[query] = next_query.get(query, 0.0) + mass * stay
                for url, probability in self._from_query(query).items():
                    next_url[url] = next_url.get(url, 0.0) + mass * move * probability
            # Mass on URL nodes: part stays, part flows back to queries.
            for url, mass in url_mass.items():
                next_url[url] = next_url.get(url, 0.0) + mass * stay
                for query, probability in self._from_url(url).items():
                    next_query[query] = next_query.get(query, 0.0) + mass * move * probability
            query_mass, url_mass = next_query, next_url

        # Report only the mass that is currently on query nodes, renormalised,
        # excluding the start node itself.
        query_mass.pop(start, None)
        total = sum(query_mass.values())
        if total == 0.0:
            return {}
        return {query: mass / total for query, mass in query_mass.items()}

    # ------------------------------------------------------------------ #
    # Synonym production (MiningResult-shaped, like every other method)
    # ------------------------------------------------------------------ #

    def find_one(self, value: str) -> EntitySynonyms:
        """Synonyms of one canonical string via the walk."""
        canonical = normalize(value)
        distribution = self.walk_distribution(canonical)
        ranked = sorted(distribution.items(), key=lambda item: (-item[1], item[0]))
        selected: list[SynonymCandidate] = []
        for query, probability in ranked:
            if probability < PROBABILITY_THRESHOLD:
                continue
            if len(selected) >= MAX_SYNONYMS:
                break
            selected.append(
                SynonymCandidate(
                    query=query,
                    ipc=0,
                    icr=min(probability, 1.0),
                    clicks=0,
                )
            )
        return EntitySynonyms(
            canonical=canonical,
            surrogates=(),
            candidates=list(selected),
            selected=selected,
        )

    def find(self, values: Iterable[str]) -> MiningResult:
        """Run the baseline over a whole input set."""
        result = MiningResult()
        for value in values:
            result.add(self.find_one(value))
        return result
