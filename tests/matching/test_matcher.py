"""Tests for the online query matcher."""

import os
import random
import string
import subprocess
import sys
import threading
from collections import defaultdict

import pytest

from repro.matching.index import DictionaryEntry
from repro.matching.matcher import MatchOutcome, QueryMatcher
from repro.serving.artifact import SynonymArtifact

from tests.conftest import SRC_DIR
from tests.oracle import reference


@pytest.fixture()
def dictionary():
    return SynonymArtifact.from_entries(
        [
            DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
            DictionaryEntry("indy 4", "m1"),
            DictionaryEntry("indiana jones 4", "m1"),
            DictionaryEntry("madagascar escape 2 africa", "m2", "canonical"),
            DictionaryEntry("madagascar 2", "m2"),
            DictionaryEntry("digital rebel xt", "c1"),
        ]
    )


@pytest.fixture()
def matcher(dictionary):
    return QueryMatcher(dictionary)


class TestExactMatching:
    def test_motivating_example(self, matcher):
        match = matcher.match("indy 4 near san fran")
        assert match.outcome is MatchOutcome.EXACT
        assert match.entity_ids == frozenset({"m1"})
        assert match.matched_text == "indy 4"
        assert match.remainder == "near san fran"
        assert match.matched

    def test_canonical_form_matches(self, matcher):
        match = matcher.match("Indiana Jones and the Kingdom of the Crystal Skull")
        assert match.outcome is MatchOutcome.EXACT
        assert match.entity_ids == {"m1"}

    def test_codename_matches_distinct_entity(self, matcher):
        assert matcher.match("digital rebel xt price").entity_ids == {"c1"}

    def test_empty_query(self, matcher):
        match = matcher.match("   ")
        assert match.outcome is MatchOutcome.NO_MATCH
        assert not match.matched


class TestFuzzyMatching:
    def test_misspelling_recovered(self, matcher):
        match = matcher.match("indiana jnoes 4")
        assert match.outcome is MatchOutcome.FUZZY
        assert match.entity_ids == {"m1"}
        assert 0.0 < match.score <= 1.0

    def test_fuzzy_disabled(self, dictionary):
        strict = QueryMatcher(dictionary, enable_fuzzy=False)
        assert strict.match("indiana jnoes 4").outcome is MatchOutcome.NO_MATCH

    def test_unrelated_query_not_matched(self, matcher):
        assert matcher.match("weather forecast tomorrow").outcome is MatchOutcome.NO_MATCH

    def test_sharing_one_token_is_not_enough(self, matcher):
        # "madagascar wildlife documentary" shares a token with an entry but
        # is far from any dictionary string.
        assert matcher.match("madagascar wildlife documentary").outcome is MatchOutcome.NO_MATCH

    def test_invalid_thresholds(self, dictionary):
        with pytest.raises(ValueError):
            QueryMatcher(dictionary, fuzzy_similarity_threshold=1.5)
        with pytest.raises(ValueError):
            QueryMatcher(dictionary, fuzzy_containment_threshold=-0.1)

    def test_query_empty_after_normalization(self, matcher):
        # Punctuation-only input normalizes to "" and must short-circuit to
        # NO_MATCH before segmentation or the fuzzy fallback ever run.
        for query in ("!!!", "  ...  ", "-_-", "'"):
            match = matcher.match(query)
            assert match.outcome is MatchOutcome.NO_MATCH, query
            assert match.query == query
            assert not match.matched

    def test_token_hit_but_every_candidate_below_threshold(self, dictionary):
        # "madagascar holiday rentals" shortlists dictionary strings through
        # the shared "madagascar" token, but every candidate fails the
        # similarity threshold — the fallback must return NO_MATCH rather
        # than the least-bad candidate.
        matcher = QueryMatcher(dictionary, fuzzy_similarity_threshold=0.95)
        query = "madagascar holiday rentals"
        shortlist = dictionary.strings_containing_token("madagascar")
        assert shortlist, "precondition: the token index must produce candidates"
        match = matcher.match(query)
        assert match.outcome is MatchOutcome.NO_MATCH
        assert match.entity_ids == frozenset()

    def test_containment_filter_rejects_before_similarity(self, dictionary):
        # A candidate sharing one token out of many is dropped by the
        # containment gate even with a permissive similarity threshold.
        permissive = QueryMatcher(
            dictionary,
            fuzzy_similarity_threshold=0.0,
            fuzzy_containment_threshold=1.0,
        )
        assert permissive.match("madagascar x").outcome is MatchOutcome.NO_MATCH


_TIE_SCRIPT = """
import sys
from repro.matching.index import DictionaryEntry
from repro.matching.matcher import QueryMatcher
from repro.serving.artifact import SynonymArtifact, compile_dictionary

entries = [DictionaryEntry("canon eos 350d", "c350"), DictionaryEntry("canon eos 450d", "c450")]
compile_dictionary(entries, sys.argv[1])
for where, index in (("memory", SynonymArtifact.from_entries(entries)),
                     ("file", SynonymArtifact.load(sys.argv[1]))):
    match = QueryMatcher(index).match("canon eos 550d")
    print(where, match.outcome.value, match.matched_text, sorted(match.entity_ids))
"""


class TestFuzzyTieBreak:
    def test_equally_similar_candidates_resolve_to_the_smallest_string(self):
        dictionary = SynonymArtifact.from_entries(
            [DictionaryEntry("canon eos 450d", "c450"), DictionaryEntry("canon eos 350d", "c350")]
        )
        match = QueryMatcher(dictionary).match("canon eos 550d")
        assert match.outcome is MatchOutcome.FUZZY
        assert match.matched_text == "canon eos 350d"
        assert match.entity_ids == {"c350"}

    def test_answer_does_not_depend_on_the_hash_seed(self, tmp_path):
        # The shortlist is a set of strings, so its iteration order follows
        # PYTHONHASHSEED; two daemon workers (or the daemon and an oracle)
        # are separate processes with separate seeds and must still agree.
        # At the parent of this test seeds 1 and 2 answered "350d", 3 and 6
        # "450d".
        outputs = set()
        for seed in ("1", "2", "3", "6"):
            done = subprocess.run(
                [sys.executable, "-c", _TIE_SCRIPT, str(tmp_path / f"tie-{seed}.synart")],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC_DIR},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert outputs == {
            "memory fuzzy canon eos 350d ['c350']\n"
            "file fuzzy canon eos 350d ['c350']\n"
        }


class _CountingArtifact(SynonymArtifact):
    """Records, by method, the argument of every call the matcher makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: dict[str, list[str]] = defaultdict(list)

    def has_token(self, token):
        self.calls["has_token"].append(token)
        return super().has_token(token)

    def entities_for(self, text):
        self.calls["entities_for"].append(text)
        return super().entities_for(text)

    def strings_containing_token(self, token):
        self.calls["strings_containing_token"].append(token)
        return super().strings_containing_token(token)


class TestPostingsMemo:
    ENTRIES = [
        DictionaryEntry("indiana jones 4", "m1"),
        DictionaryEntry("indy 4", "m1"),
        DictionaryEntry("madagascar escape 2 africa", "m2"),
        DictionaryEntry("madagascar 2", "m2"),
        DictionaryEntry("digital rebel xt", "c1"),
        DictionaryEntry("canon eos 350d", "c1"),
    ]

    def _index(self):
        index = _CountingArtifact.from_entries(self.ENTRIES)
        return index, {word for text, *_ in index for word in text.split()}

    def test_memo_holds_only_index_tokens_and_is_read_once(self):
        index, vocabulary = self._index()
        rng = random.Random(7)
        unknown = set()
        while len(unknown) < 300:
            word = "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randint(2, 7)))
            if word not in vocabulary:
                unknown.add(word)
        unknown_words = sorted(unknown)
        queries = [
            " ".join(rng.choices(unknown_words, k=rng.randint(1, 4))) for _ in range(1000)
        ]
        # Sorted, no span of it is a dictionary string: it takes the fuzzy path.
        every_token = " ".join(sorted(vocabulary))
        matcher = QueryMatcher(index)

        assert all(not matcher.match(query).matched for query in queries)
        assert matcher.match(every_token) == reference.match(
            reference.entries(self.ENTRIES), every_token
        )
        assert set(matcher._token_ids) == vocabulary  # no unknown word was memoized
        assert sorted(index.calls["strings_containing_token"]) == sorted(vocabulary)
        # The memo holds string ids only: no decoded string is kept per token.
        assert all(
            isinstance(sid, int)
            for ids, lone in matcher._token_ids.values()
            for sid in ids | lone
        )

        # Every known word is memoized now.  Unknown words reach the index
        # only to ask whether it has them, once per query; never the
        # shortlist, never an exact probe.
        for query in queries:
            index.calls.clear()
            matcher.match(query)
            assert sorted(index.calls.pop("has_token")) == sorted(set(query.split())), query
            assert not index.calls, query
        index.calls.clear()
        matcher.match(every_token)
        assert set(index.calls) == {"entities_for"}
        assert set(matcher._token_ids) == vocabulary

    def test_a_long_query_of_unknown_words_asks_once_per_token(self):
        index, vocabulary = self._index()
        words = [f"w{number:05d}" for number in range(64 * 1024 // 7 + 1)]
        assert not set(words) & vocabulary
        query = " ".join(words)
        assert len(query) >= 64 * 1024

        found = QueryMatcher(index).match(query)

        assert found.outcome is MatchOutcome.NO_MATCH
        assert sorted(index.calls.pop("has_token")) == sorted(words)
        assert not index.calls  # no exact probe, no shortlist

    def test_threads_sharing_the_memos_answer_like_the_reference(self):
        index, vocabulary = self._index()
        rng = random.Random(3)
        words = sorted(vocabulary) + ["near", "zzz", "indi", "madagscar", "rebl", "eos350d"]
        queries = list({" ".join(rng.choices(words, k=rng.randint(1, 5))) for _ in range(300)})
        entries = reference.entries(self.ENTRIES)
        expected = {query: reference.match(entries, query) for query in queries}
        # One fresh matcher over a fresh index, so the threads also race the
        # first build of the index's word counts.
        matcher = QueryMatcher(index)
        assert index._word_counts is None
        answers = []

        def work(seed):
            order = random.Random(seed).sample(queries, len(queries))
            answers.append({query: matcher.match(query) for query in order})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(answers) == len(workers)
        assert all(answer == expected for answer in answers)
        assert matcher.segmenter._known <= vocabulary
        assert set(matcher._token_ids) <= vocabulary
        counts = index.word_counts()
        assert sorted(counts.values()) == sorted(
            len(set(text.split())) for text in {text for text, *_ in index}
        )

    # "the" is in 3 002 postings; "quiet" in two.  Only the strings holding
    # both can pass containment for "the quiet rivr" (2/3 words shared).
    BIG = [DictionaryEntry(f"the item {number:04d}", f"i{number}") for number in range(3000)] + [
        DictionaryEntry("the quiet river", "r1"),
        DictionaryEntry("the quiet sea", "s1"),
    ]

    def test_a_fuzzy_query_decodes_only_strings_that_pass_containment(self):
        index = SynonymArtifact.from_entries(self.BIG)
        matcher = QueryMatcher(index)
        query = "the quiet rivr"
        assert len(index.strings_containing_token("the")) == 3002
        assert matcher.segmenter.best_segment(query) is None  # the fuzzy path follows
        decoded = set(index._strings)

        found = matcher._fuzzy_match(query)
        grown = {index._strings[sid] for sid in set(index._strings) - decoded}

        assert found is not None and found[0] == "the quiet river"
        assert matcher.match(query) == reference.match(reference.entries(self.BIG), query)
        query_words = set(query.split())
        passing = {
            entry.text
            for entry in self.BIG
            if len(set(entry.text.split()) & query_words) / len(set(entry.text.split())) >= 0.6
        }
        assert passing == {"the quiet river", "the quiet sea"}
        assert grown <= passing

    def test_len_of_the_shortlist_view_decodes_nothing(self):
        index = SynonymArtifact.from_entries(self.BIG)
        view = index.strings_containing_token("the")
        decoded = len(index._strings)

        assert len(view) == 3002
        assert len(view.ids) == 3002
        assert len(index._strings) == decoded
        assert "the quiet river" in view and "the quiet rivr" not in view
        assert len(index._strings) - decoded <= 2 * 12  # two bisections of 3 002 ids


def _coverage(matcher, queries):
    return sum(matcher.match(query).matched for query in queries) / len(queries)


class TestBatchAndCoverage:
    def test_coverage_fraction(self, matcher):
        queries = ["indy 4 showtimes", "madagascar 2", "weather forecast", "lottery numbers"]
        assert _coverage(matcher, queries) == pytest.approx(0.5)

    def test_expanded_dictionary_beats_canonical_only(self, dictionary):
        canonical_only = SynonymArtifact.from_entries(
            entry for entry in dictionary if entry[2] == "canonical"
        )
        queries = ["indy 4 near san fran", "madagascar 2 dvd", "digital rebel xt review"]
        expanded = _coverage(QueryMatcher(dictionary, enable_fuzzy=False), queries)
        baseline = _coverage(QueryMatcher(canonical_only, enable_fuzzy=False), queries)
        assert expanded > baseline
