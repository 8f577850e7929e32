"""Topic classification: routing articles to topic-based news rooms.

The platform's news rooms are topic-scoped (§V); at ingest time someone
must decide *which* room/beat a piece of content belongs to.  A
multinomial-NB-over-TF-IDF classifier does this with near-perfect
accuracy on the synthetic corpus (topics have distinct vocabularies by
construction) and realistically high accuracy on anything
vocabulary-separable.
"""

from __future__ import annotations

from typing import Sequence

from repro._numpy import np
from repro.errors import MLError
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.vectorize import TfidfVectorizer

__all__ = ["TopicClassifier"]


class TopicClassifier:
    """Multiclass topic model with string labels."""

    def __init__(self, max_features: int | None = 4000, alpha: float = 0.5):
        self._vectorizer = TfidfVectorizer(max_features=max_features)
        self._model = MultinomialNaiveBayes(alpha=alpha)
        self._labels: list[str] = []
        self._fitted = False

    def fit(self, texts: list[str], topics: Sequence[str]) -> "TopicClassifier":
        if len(texts) != len(topics) or not texts:
            raise MLError("texts/topics length mismatch or empty")
        self._labels = sorted(set(topics))
        if len(self._labels) < 2:
            raise MLError("need at least two topics to classify")
        index_of = {label: index for index, label in enumerate(self._labels)}
        y = np.array([index_of[topic] for topic in topics])
        X = self._vectorizer.fit_transform(texts)
        self._model.fit(X, y)
        self._fitted = True
        return self

    @property
    def topics(self) -> list[str]:
        return list(self._labels)

    def predict(self, texts: list[str]) -> list[str]:
        if not self._fitted:
            raise MLError("classifier is not fitted")
        X = self._vectorizer.transform(texts)
        indices = self._model.predict(X)
        return [self._labels[int(index)] for index in indices]

    def predict_proba(self, texts: list[str]) -> np.ndarray:
        """(n_texts, n_topics) probabilities, columns in ``topics`` order."""
        if not self._fitted:
            raise MLError("classifier is not fitted")
        return self._model.predict_proba(self._vectorizer.transform(texts))

    def confidence(self, text: str) -> tuple[str, float]:
        """Best topic and its probability — callers can route low-
        confidence content to a human desk instead of guessing."""
        proba = self.predict_proba([text])[0]
        best = int(np.argmax(proba))
        return self._labels[best], float(proba[best])
