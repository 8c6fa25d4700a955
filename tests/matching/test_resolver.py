"""Tests for ambiguous-match resolution."""

import pytest

from repro.clicklog.log import ClickLog
from repro.matching.index import DictionaryEntry
from repro.matching.matcher import QueryMatcher
from repro.matching.resolver import MatchResolver
from repro.serving.artifact import SynonymArtifact


@pytest.fixture()
def dictionary():
    return SynonymArtifact.from_entries(
        [
            DictionaryEntry("lyra quinn", "m1"),
            DictionaryEntry("lyra quinn", "m2"),
            DictionaryEntry("lyra quinn and the kingdom of the crystal skull", "m1", "canonical"),
            DictionaryEntry("kingdom of the crystal skull", "m1"),
            DictionaryEntry("lyra quinn 2 and the empire of the shattered crown", "m2", "canonical"),
            DictionaryEntry("empire of the shattered crown", "m2"),
        ]
    )


@pytest.fixture()
def click_log():
    return ClickLog.from_tuples(
        [
            # m2's strings carry much more traffic than m1's.
            ("empire of the shattered crown", "https://a.example", 500),
            ("lyra quinn 2 and the empire of the shattered crown", "https://a.example", 100),
            ("kingdom of the crystal skull", "https://b.example", 40),
        ]
    )


@pytest.fixture()
def matcher(dictionary):
    return QueryMatcher(dictionary, enable_fuzzy=False)


class TestPriors:
    def test_prior_without_click_log_is_uniform(self, dictionary):
        resolver = MatchResolver(dictionary)
        assert resolver.prior("m1") == resolver.prior("m2") == 1.0

    def test_prior_reflects_click_volume(self, dictionary, click_log):
        resolver = MatchResolver(dictionary, click_log=click_log)
        assert resolver.prior("m2") > resolver.prior("m1")

    def test_prior_cached(self, dictionary, click_log):
        resolver = MatchResolver(dictionary, click_log=click_log)
        assert resolver.prior("m2") == resolver.prior("m2")


class TestPrecomputedPriors:
    """Priors from a mapping (e.g. an artifact's priors block) vs the live log."""

    def test_mapping_values_used_directly(self, dictionary):
        resolver = MatchResolver(dictionary, priors={"m1": 40.0, "m2": 600.0})
        assert resolver.prior("m1") == 40.0
        assert resolver.prior("m2") == 600.0

    def test_unknown_entity_scores_zero(self, dictionary):
        # Matches the live-log behaviour: an entity with no known strings
        # sums an empty click set.
        resolver = MatchResolver(dictionary, priors={"m1": 40.0})
        assert resolver.prior("ghost") == 0.0

    def test_both_sources_rejected(self, dictionary, click_log):
        with pytest.raises(ValueError, match="not both"):
            MatchResolver(dictionary, click_log=click_log, priors={"m1": 1.0})

    def test_rank_from_mapping_equals_rank_from_live_log(self, dictionary, click_log, matcher):
        """The precomputed path is field-for-field the live-log path."""
        live = MatchResolver(dictionary, click_log=click_log)
        frozen = MatchResolver(dictionary, priors={e: live.prior(e) for e in ("m1", "m2")})
        for query in ("lyra quinn", "lyra quinn crystal skull", "lyra quinn shattered crown"):
            match = matcher.match(query)
            assert frozen.rank(match) == live.rank(match), query


class TestContextOverlap:
    def test_context_tokens_disambiguate(self, dictionary):
        resolver = MatchResolver(dictionary)
        assert resolver.context_overlap("m1", "crystal skull showtimes") > resolver.context_overlap(
            "m2", "crystal skull showtimes"
        )

    def test_empty_remainder_gives_zero(self, dictionary):
        resolver = MatchResolver(dictionary)
        assert resolver.context_overlap("m1", "") == 0.0

    def test_stopword_only_remainder_gives_zero(self, dictionary):
        resolver = MatchResolver(dictionary)
        assert resolver.context_overlap("m1", "the of and") == 0.0


class TestResolution:
    def test_unambiguous_match_passes_through(self, dictionary, matcher):
        resolver = MatchResolver(dictionary)
        match = matcher.match("kingdom of the crystal skull")
        assert resolver.rank(match)[0].entity_id == "m1"

    def test_context_beats_popularity(self, dictionary, click_log, matcher):
        resolver = MatchResolver(dictionary, click_log=click_log)
        match = matcher.match("lyra quinn crystal skull")
        assert match.entity_ids == {"m1", "m2"}
        assert resolver.rank(match)[0].entity_id == "m1"

    def test_popularity_breaks_contextless_ties(self, dictionary, click_log, matcher):
        resolver = MatchResolver(dictionary, click_log=click_log)
        match = matcher.match("lyra quinn")
        assert resolver.rank(match)[0].entity_id == "m2"

    def test_rank_is_sorted_and_complete(self, dictionary, click_log, matcher):
        resolver = MatchResolver(dictionary, click_log=click_log)
        ranked = resolver.rank(matcher.match("lyra quinn"))
        assert {item.entity_id for item in ranked} == {"m1", "m2"}
        scores = [item.score for item in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_resolve_unmatched_query(self, dictionary, matcher):
        resolver = MatchResolver(dictionary)
        assert resolver.rank(matcher.match("nothing here")) == []
