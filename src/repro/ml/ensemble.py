"""The platform's AI scorer: three models over one featurization.

:class:`FakeNewsScorer` is the concrete "AI validated" component the
platform architecture (Fig. 1) plugs in: fit on labeled text, emit
P(fake) in [0, 1].  It fuses, by a weighted mean, a TF-IDF logistic
regression, a multinomial NB over counts, and a stylometric logistic
regression — three genuinely different inductive biases, which is what
makes the fusion worth more than any member (shown in E5).

Each text is read once: one token :class:`~collections.Counter` per
text (:func:`~repro.ml.vectorize.count_terms`) feeds one count matrix
over one vocabulary, which NB reads as it is and the TF-IDF member
reads weighted; the stylometric features read the same counters
(DESIGN.md, "The scorer reads a text once").
"""

from __future__ import annotations

from typing import Sequence

from repro._numpy import np
from repro.errors import MLError
from repro.ml.features import StylometricExtractor
from repro.ml.logistic import LogisticRegression
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.vectorize import StandardScaler, TfidfVectorizer, count_terms

__all__ = ["FakeNewsScorer"]


class FakeNewsScorer:
    """The platform's default AI component: text in, P(fake) out."""

    def __init__(self, seed: int = 0, max_features: int | None = 4000):
        self.seed = seed
        self._tfidf = TfidfVectorizer(max_features=max_features)
        self._lexical = LogisticRegression()
        self._bayes = MultinomialNaiveBayes()
        self._stylometry = StylometricExtractor()
        self._scaler = StandardScaler()
        self._stylometric = LogisticRegression(learning_rate=0.3)
        self._fitted = False

    def fit(self, texts: list[str], labels: Sequence[int]) -> "FakeNewsScorer":
        if len(texts) != len(labels):
            raise MLError("texts/labels length mismatch")
        y = np.asarray(labels)
        counts, style = self._featurize(texts, fit=True)
        self._bayes.fit(counts, y)  # before the counts are weighted in place
        self._lexical.fit(self._tfidf.fit_weights(counts), y)
        self._stylometric.fit(self._scaler.fit_transform(style), y)
        self._fitted = True
        return self

    def score(self, texts: list[str]) -> np.ndarray:
        """P(fake) per text, in corpus order."""
        if not self._fitted:
            raise MLError("scorer must be fitted before scoring")
        counts, style = self._featurize(texts)
        bayes = self._bayes.score_fake(counts)  # before the counts are weighted in place
        lexical = self._lexical.score_fake(self._tfidf.weight(counts))
        stylometric = self._stylometric.score_fake(self._scaler.transform(style))
        # The weighted mean over member weights 2 (TF-IDF), 1 (NB) and 2
        # (stylometric), summed in that order.
        return (2.0 * lexical + bayes + 2.0 * stylometric) / 5.0

    def score_one(self, text: str) -> float:
        return float(self.score([text])[0])

    def predict(self, texts: list[str], threshold: float = 0.5) -> np.ndarray:
        return (self.score(texts) >= threshold).astype(np.int64)

    def _featurize(self, texts: list[str], fit: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The count matrix and the stylometric matrix of *texts*, from one
        tokenization per text (fitting the vocabulary first if *fit*); the
        token counters are dropped on return."""
        counted = count_terms(texts)
        if fit:
            self._tfidf.counter.fit_counted(counted)
        counts = self._tfidf.counter.transform_counted(counted)
        return counts, self._stylometry.transform_counted(texts, counted)
