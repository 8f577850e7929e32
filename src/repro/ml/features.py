"""Stylometric features: the social/humanistic signals the paper's
"fake text detection component" (§IV) looks for.

Fake news — per the paper's framing and its OpenSources reference [41] —
carries negative-emotion vocabulary, clickbait framing, hedged
attribution, and weaker sourcing than standard factual news.  This
module measures exactly those registers (against the same lexicons the
corpus generator draws from) plus register-free shape statistics, and
wraps them in a classifier-compatible extractor.
"""

from __future__ import annotations

from collections import Counter

from repro._numpy import np
from repro.corpus.lexicon import (
    CLICKBAIT_PHRASES,
    EMOTIONAL_WORDS,
    HEDGE_WORDS,
    NEUTRAL_VERBS,
    REPORTING_VERBS,
    tokenize,
)
from repro.ml.vectorize import count_terms

__all__ = ["StylometricExtractor", "FEATURE_NAMES"]

FEATURE_NAMES = (
    "emotional_rate",
    "clickbait_hits",
    "hedge_rate",
    "attribution_rate",
    "neutral_verb_rate",
    "numeric_density",
    "type_token_ratio",
    "mean_sentence_length",
    "sentence_length_cv",
    "second_person_rate",
)

_EMOTIONAL = frozenset(EMOTIONAL_WORDS)
_HEDGE_TOKENS = frozenset(
    token for phrase in HEDGE_WORDS for token in tokenize(phrase)
)
_REPORTING_TOKENS = frozenset(
    token for phrase in REPORTING_VERBS for token in tokenize(phrase)
)
_NEUTRAL = frozenset(NEUTRAL_VERBS)
_SECOND_PERSON = frozenset({"you", "your", "yours"})


class StylometricExtractor:
    """Turns raw text into the 10-dimensional stylometric vector.

    Stateless (no fit needed); ``fit``/``fit_transform`` exist so it
    slots into the same pipelines as the vectorizers.
    """

    def transform(self, texts: list[str]) -> np.ndarray:
        return self.transform_counted(texts, count_terms(texts))

    def transform_counted(self, texts: list[str], counted: list[Counter[str]]) -> np.ndarray:
        """The vectors of *texts*, whose token counts *counted* already
        holds (:func:`~repro.ml.vectorize.count_terms`)."""
        rows = [self._features(text, counts) for text, counts in zip(texts, counted)]
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))

    def fit(self, texts: list[str]) -> "StylometricExtractor":
        return self

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        return self.transform(texts)

    def _features(self, text: str, counts: Counter[str]) -> list[float]:
        # Every rate is an integer count over the token total, so reading
        # the counts gives the values walking the token list gave.
        n = max(1, sum(counts.values()))
        lower = text.lower()
        sentences = [s for s in lower.split(".") if s.strip()]
        lengths = np.array([len(tokenize(s)) for s in sentences] or [0], dtype=np.float64)
        mean_len = float(lengths.mean())
        cv = float(lengths.std() / mean_len) if mean_len > 0 else 0.0
        return [
            _hits(counts, _EMOTIONAL) / n,
            float(sum(lower.count(phrase) for phrase in CLICKBAIT_PHRASES)),
            _hits(counts, _HEDGE_TOKENS) / n,
            _hits(counts, _REPORTING_TOKENS) / n,
            _hits(counts, _NEUTRAL) / n,
            sum(count for term, count in counts.items() if term.isdigit()) / n,
            len(counts) / n,
            mean_len,
            cv,
            _hits(counts, _SECOND_PERSON) / n,
        ]


def _hits(counts: Counter[str], terms: frozenset[str]) -> int:
    """How many of the counted tokens are in *terms*."""
    return sum(counts[term] for term in terms.intersection(counts))
