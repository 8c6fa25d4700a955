"""The brute-force reference every representation that answers is held to.

Pure functions over a plain list of ``(text, entity, source, weight)`` rows
(:class:`DictionaryEntry`) and per-text click counts.  Nothing here shares
code with the indexes under test: every answer is found by scanning the
entries, and the fuzzy fallback uses a textbook edit distance, so an
optimisation that changes an answer cannot be wrong on both sides.  From
``repro`` it takes only what fixes the answer's shape and meaning: the
result dataclasses, :func:`normalize` (what "the same string" means), the
stopword list and ``CONTEXT_WEIGHT``.

The words of a normalized string are its space-separated pieces.
"""

from typing import Iterable, Mapping, Sequence

from repro.matching.index import DictionaryEntry
from repro.matching.matcher import EntityMatch, MatchOutcome
from repro.matching.resolver import CONTEXT_WEIGHT, RankedEntity
from repro.text.normalize import normalize
from repro.text.stopwords import STOPWORDS

# QueryMatcher's default fuzzy thresholds, restated.
SIMILARITY_THRESHOLD = 0.84
CONTAINMENT_THRESHOLD = 0.6

Index = Sequence[DictionaryEntry]


def words(normalized: str) -> list[str]:
    return normalized.split(" ") if normalized else []


def classic_levenshtein_distance(a: str, b: str) -> int:
    """Textbook two-row edit distance: no band, no cut-off, no trimming."""
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def entries(rows: Iterable[DictionaryEntry]) -> list[DictionaryEntry]:
    """The entries an index holds, in its iteration order.

    Texts are normalized and empty ones dropped; a repeated (text, entity)
    pair stays at its first position with the source and weight of its
    heaviest row (the earlier row wins a tie).
    """
    kept: list[DictionaryEntry] = []
    for row in rows:
        entry = DictionaryEntry(normalize(row.text), row.entity_id, row.source, float(row.weight))
        if not entry.text:
            continue
        for position, seen in enumerate(kept):
            if (seen.text, seen.entity_id) == (entry.text, entry.entity_id):
                if entry.weight > seen.weight:
                    kept[position] = entry
                break
        else:
            kept.append(entry)
    return kept


def lookup(index: Index, text: str) -> list[DictionaryEntry]:
    return [entry for entry in index if entry.text == normalize(text)]


def entities_for(index: Index, text: str) -> set[str]:
    return {entry.entity_id for entry in lookup(index, text)}


def strings_containing_token(index: Index, token: str) -> set[str]:
    """Texts with *token* among their words (the token is not normalized)."""
    return {entry.text for entry in index if token in words(entry.text)}


def strings_for_entity(index: Index, entity_id: str) -> list[str]:
    return [entry.text for entry in index if entry.entity_id == entity_id]


def max_entry_tokens(index: Index) -> int:
    return max((len(words(entry.text)) for entry in index), default=0)


def priors(index: Index, clicks: Mapping[str, int]) -> dict[str, float]:
    """Entity id -> summed clicks of the entity's texts."""
    return {
        entry.entity_id: float(
            sum(clicks.get(text, 0) for text in strings_for_entity(index, entry.entity_id))
        )
        for entry in index
    }


def match(
    index: Index,
    query: str,
    *,
    fuzzy: bool = True,
    similarity_threshold: float = SIMILARITY_THRESHOLD,
    containment_threshold: float = CONTAINMENT_THRESHOLD,
) -> EntityMatch:
    """What every matcher must answer for *query*.

    Exact: the longest, then leftmost, word span of the normalized query
    that equals an entry text.  Fuzzy: among texts sharing a word with the
    query, those whose words the query contains to at least the containment
    threshold and whose edit similarity reaches the similarity threshold;
    the best is the smallest ``(-similarity, text)``.
    """
    normalized = normalize(query)
    query_words = words(normalized)
    texts = {entry.text for entry in index}
    for length in range(len(query_words), 0, -1):
        for start in range(len(query_words) - length + 1):
            mention = " ".join(query_words[start : start + length])
            if mention in texts:
                remainder = " ".join(query_words[:start] + query_words[start + length :])
                return EntityMatch(
                    query, MatchOutcome.EXACT, frozenset(entities_for(index, mention)),
                    mention, remainder, 1.0,
                )
    if not fuzzy:
        return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)
    scored = []
    for text in texts:
        text_words = set(words(text))
        shared = text_words & set(query_words)
        if not shared or len(shared) / len(text_words) < containment_threshold:
            continue
        longest = max(len(normalized), len(text))
        similarity = 1.0 - classic_levenshtein_distance(normalized, text) / longest
        if similarity >= similarity_threshold:
            scored.append((-similarity, text))
    if not scored:
        return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)
    negated, best = min(scored)
    return EntityMatch(
        query, MatchOutcome.FUZZY, frozenset(entities_for(index, best)), best, "", -negated
    )


def rank(
    index: Index, found: EntityMatch, entity_priors: Mapping[str, float] | None
) -> list[RankedEntity]:
    """The entities of *found*, best first.

    Score: the entity's prior (``None`` priors: 1.0 each; an entity the
    mapping lacks: 0.0) over the largest prior among them, plus
    ``CONTEXT_WEIGHT`` times the share of the remainder's non-stopword words
    that occur in the entity's texts.  Ties go to the smaller entity id.
    """
    entity_ids = sorted(found.entity_ids)
    prior = {
        entity_id: 1.0 if entity_priors is None else float(entity_priors.get(entity_id, 0.0))
        for entity_id in entity_ids
    }
    remainder = {word for word in words(normalize(found.remainder)) if word not in STOPWORDS}
    ranked = []
    for entity_id in entity_ids:
        entity_words = {w for text in strings_for_entity(index, entity_id) for w in words(text)}
        shared = len(remainder & entity_words)
        overlap = shared / len(remainder) if remainder and entity_words else 0.0
        score = (prior[entity_id] / (max(prior.values()) or 1.0)) + CONTEXT_WEIGHT * overlap
        ranked.append(RankedEntity(entity_id, score, prior[entity_id], overlap))
    ranked.sort(key=lambda item: (-item.score, item.entity_id))
    return ranked
