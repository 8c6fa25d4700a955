"""Text substrate: normalization, tokenization and string similarity.

Every other subsystem (the search engine, the click-log simulator, the
synonym miner and the online matcher) funnels raw strings through this
package so that "the same query written slightly differently" maps to the
same normalized form everywhere.
"""

from repro.text.normalize import normalize, strip_accents, normalize_whitespace
from repro.text.tokenize import tokenize, ngrams, token_set
from repro.text.stopwords import STOPWORDS, is_stopword, remove_stopwords
from repro.text.similarity import (
    levenshtein_distance,
    levenshtein_similarity,
    token_containment,
)

__all__ = [
    "normalize",
    "strip_accents",
    "normalize_whitespace",
    "tokenize",
    "ngrams",
    "token_set",
    "STOPWORDS",
    "is_stopword",
    "remove_stopwords",
    "levenshtein_distance",
    "levenshtein_similarity",
    "token_containment",
]
