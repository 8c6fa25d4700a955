"""Differential test: ``QueryMatcher`` against the slow reference fallback.

The fuzzy fallback counts postings, bounds by length and cuts the edit
distance off; none of that may change an answer.  Hypothesis builds small
dictionaries over a colliding vocabulary plus typo'd queries, and every
index representation the serving stack has — the in-memory dictionary, a
heap artifact, an mmap artifact and an artifact reached by applying a
delta — must answer exactly what ``reference_match`` answers on the
in-memory dictionary.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.matching.dictionary import SynonymDictionary
from repro.matching.index import DictionaryEntry
from repro.matching.matcher import QueryMatcher
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import DictionaryDelta, diff_delta

from tests.matching.fuzzy_reference import reference_match

THRESHOLDS = (0.0, 0.6, 0.84, 1.0)

# Few, similar words: shared tokens, equal-similarity ties and near misses
# are the common case, not the lucky one.  Some normalize to other text
# ("É" -> "e", "director's" -> "directors"), some stay non-ASCII and so
# produce no token at all.
WORDS = [
    "canon", "eos", "350d", "450d", "550d", "rebel", "xt", "xti", "digital", "bora",
    "a", "b", "indiana", "jones", "4", "É", "café", "director's", "камера", "日本",
]  # fmt: skip
word = st.sampled_from(WORDS)
phrase = st.lists(word, min_size=1, max_size=5).map(" ".join)
entries = st.lists(
    st.builds(DictionaryEntry, text=phrase, entity_id=st.sampled_from(["e1", "e2", "e3"])),
    min_size=1,
    max_size=14,
)


@st.composite
def typo_queries(draw, dictionary_entries):
    """A dictionary string with a few character edits and token-level noise."""
    base = draw(st.sampled_from([entry.text for entry in dictionary_entries]))
    for _ in range(draw(st.integers(0, 2))):
        position = draw(st.integers(0, len(base)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "swap"]))
        letter = draw(st.sampled_from("abcdx5 é"))
        if edit == "insert":
            base = base[:position] + letter + base[position:]
        elif edit == "delete":
            base = base[:position] + base[position + 1 :]
        elif edit == "replace":
            base = base[:position] + letter + base[position + 1 :]
        else:
            base = base[:position] + base[position : position + 2][::-1] + base[position + 2 :]
    tokens = base.split(" ")
    if draw(st.booleans()):  # a duplicated query token must not count twice
        tokens.append(draw(st.sampled_from(tokens)))
    if draw(st.booleans()):  # context word: something remains beside the mention
        context = word | st.text(alphabet="abcd1", min_size=1, max_size=5)
        tokens.insert(draw(st.integers(0, len(tokens))), draw(context))
    return " ".join(tokens)


@st.composite
def cases(draw):
    dictionary_entries = draw(entries)
    queries = draw(st.lists(typo_queries(dictionary_entries), min_size=1, max_size=6))
    # What the delta-applied artifact starts from: some entries missing,
    # some that the delta has to remove again.
    base_entries = draw(st.lists(st.sampled_from(dictionary_entries), max_size=8, unique=True))
    base_entries += draw(st.lists(st.builds(DictionaryEntry, phrase, st.just("e9")), max_size=3))
    return (
        dictionary_entries,
        base_entries,
        queries,
        draw(st.sampled_from(THRESHOLDS)),
        draw(st.sampled_from(THRESHOLDS)),
    )


@settings(max_examples=120, deadline=None)
@given(cases())
@example(
    (
        [DictionaryEntry("canon eos 350d", "e1"), DictionaryEntry("canon eos 450d", "e2")],
        [DictionaryEntry("canon eos 450d", "e2"), DictionaryEntry("canon eos", "e9")],
        ["canon eos 550d", "canon canon eos 550d", "cano", "450d"],
        0.84,
        0.6,
    )
)
@example(  # similarity exactly on the threshold, reached by the length gap alone
    ([DictionaryEntry("a b", "e1")], [], ["a xxb"], 0.6, 0.0)
)
@example(  # three deletions at the front: the optimal path runs along the band's edge
    ([DictionaryEntry("canon eos 350d digital", "e1")], [], ["on eos 350d digital"], 0.84, 0.6)
)
def test_every_index_answers_like_the_reference(case):
    dictionary_entries, base_entries, queries, similarity, containment = case
    thresholds = {
        "fuzzy_similarity_threshold": similarity,
        "fuzzy_containment_threshold": containment,
    }
    dictionary = SynonymDictionary(dictionary_entries)
    expected = [
        reference_match(
            dictionary, query, similarity_threshold=similarity, containment_threshold=containment
        )
        for query in queries
    ]
    with tempfile.TemporaryDirectory() as scratch:
        full = Path(scratch) / "full.synart"
        compile_dictionary(dictionary, full)
        base_path = Path(scratch) / "base.synart"
        compile_dictionary(SynonymDictionary(base_entries), base_path)
        base = SynonymArtifact.load(base_path)
        sidecar = Path(scratch) / "base.synart.delta"
        diff_delta(base, dictionary, sidecar, version="2")
        with SynonymArtifact.load(full, mmap=True) as mapped:
            indexes = {
                "dictionary": dictionary,
                "heap": SynonymArtifact.load(full),
                "mmap": mapped,
                "delta": base.apply_delta(DictionaryDelta.load(sidecar)),
            }
            for name, index in indexes.items():
                matcher = QueryMatcher(index, **thresholds)
                assert [matcher.match(query) for query in queries] == expected, name
