"""Text vectorizers: bag-of-words, TF-IDF, and feature hashing.

From-scratch NumPy implementations with the familiar fit/transform
shape.  Matrices are dense ``float64`` arrays — corpora in these
experiments are thousands of documents with vocabularies of a few
thousand terms, where dense NumPy is both simpler and faster than a
hand-rolled sparse format.

A text is tokenized once: :func:`count_terms` turns it into a token
:class:`~collections.Counter`, and everything downstream reads that.
:class:`CountVectorizer` fits its vocabulary and builds its count matrix
from the counters (``fit_counted`` / ``transform_counted``), and
:class:`TfidfVectorizer` weights a count matrix in place (``fit_weights``
/ ``weight``), so a caller that needs both counts and TF-IDF — the
platform's :class:`~repro.ml.ensemble.FakeNewsScorer` — counts once,
reads the counts, then weights them.
"""

from __future__ import annotations

from collections import Counter

from repro._numpy import np
from repro.corpus.lexicon import tokenize
from repro.errors import MLError

__all__ = ["CountVectorizer", "TfidfVectorizer", "HashingVectorizer", "StandardScaler",
           "ScaledVectorizer", "count_terms"]


def count_terms(texts: list[str]) -> list[Counter[str]]:
    """One token :class:`~collections.Counter` per text: the one
    tokenization every featurization here reads."""
    return [Counter(tokenize(text)) for text in texts]


class StandardScaler:
    """Column-wise (x - mean) / std standardization."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        self.std_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise MLError("scaler is not fitted")
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.std_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class ScaledVectorizer:
    """Compose any vectorizer with standardization of its output.

    Needed for low-dimensional dense feature extractors (stylometric
    features span wildly different ranges), harmless for already-
    normalized TF-IDF.
    """

    def __init__(self, inner):
        self.inner = inner
        self.scaler = StandardScaler()

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        return self.scaler.fit_transform(self.inner.fit_transform(texts))

    def fit(self, texts: list[str]) -> "ScaledVectorizer":
        self.fit_transform(texts)
        return self

    def transform(self, texts: list[str]) -> np.ndarray:
        return self.scaler.transform(self.inner.transform(texts))


class CountVectorizer:
    """Bag-of-words counts over a corpus-fitted vocabulary."""

    def __init__(self, min_df: int = 1, max_features: int | None = None):
        if min_df < 1:
            raise MLError("min_df must be >= 1")
        self.min_df = min_df
        self.max_features = max_features
        self.vocabulary_: dict[str, int] = {}

    def fit(self, texts: list[str]) -> "CountVectorizer":
        return self.fit_counted(count_terms(texts))

    def fit_counted(self, counted: list[Counter[str]]) -> "CountVectorizer":
        """Fit the vocabulary on texts already counted (:func:`count_terms`).
        Raises :class:`MLError` when no term reaches ``min_df``: a model
        over no terms could only answer its prior."""
        document_frequency: Counter[str] = Counter()
        for counts in counted:
            document_frequency.update(counts.keys())
        terms = [t for t, df in document_frequency.items() if df >= self.min_df]
        if not terms:
            raise MLError(f"no term occurs in {self.min_df} or more of the {len(counted)} "
                          "training texts: nothing to fit a vocabulary on")
        # Keep the highest-DF terms when capped; ties broken alphabetically
        # so fitting is deterministic.
        terms.sort(key=lambda t: (-document_frequency[t], t))
        if self.max_features is not None:
            terms = terms[: self.max_features]
        self.vocabulary_ = {term: index for index, term in enumerate(sorted(terms))}
        return self

    def transform(self, texts: list[str]) -> np.ndarray:
        return self.transform_counted(count_terms(texts))

    def transform_counted(self, counted: list[Counter[str]]) -> np.ndarray:
        """The count matrix of texts already counted, one row per counter."""
        if not self.vocabulary_:
            raise MLError("vectorizer is not fitted")
        matrix = np.zeros((len(counted), len(self.vocabulary_)), dtype=np.float64)
        for row, counts in enumerate(counted):
            for term, count in counts.items():
                column = self.vocabulary_.get(term)
                if column is not None:
                    matrix[row, column] = count
        return matrix

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        counted = count_terms(texts)
        return self.fit_counted(counted).transform_counted(counted)


class TfidfVectorizer:
    """TF-IDF with smoothed IDF and L2 row normalization, weighted from
    the count matrix of its :attr:`counter`."""

    def __init__(self, min_df: int = 1, max_features: int | None = None):
        self.counter = CountVectorizer(min_df=min_df, max_features=max_features)
        self.idf_: np.ndarray | None = None

    @property
    def vocabulary_(self) -> dict[str, int]:
        return self.counter.vocabulary_

    def fit(self, texts: list[str]) -> "TfidfVectorizer":
        self.fit_transform(texts)
        return self

    def fit_weights(self, counts: np.ndarray) -> np.ndarray:
        """Fit the IDF on the training count matrix *counts* (over
        :attr:`counter`'s vocabulary) and :meth:`weight` it."""
        n_docs = counts.shape[0]
        document_frequency = np.count_nonzero(counts, axis=0)
        self.idf_ = np.log((1 + n_docs) / (1 + document_frequency)) + 1.0
        return self.weight(counts)

    def weight(self, counts: np.ndarray) -> np.ndarray:
        """Turn a count matrix over :attr:`counter`'s vocabulary into its
        TF-IDF matrix, in place, and return it: a caller that still needs
        the counts reads them first, and no second matrix is held."""
        if self.idf_ is None:
            raise MLError("vectorizer is not fitted")
        counts *= self.idf_
        norms = np.linalg.norm(counts, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        counts /= norms
        return counts

    def transform(self, texts: list[str]) -> np.ndarray:
        return self.weight(self.counter.transform(texts))

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        return self.fit_weights(self.counter.fit_transform(texts))


class HashingVectorizer:
    """Stateless vectorizer: terms hashed into a fixed number of buckets.

    No fitting pass and no stored vocabulary, which is what a streaming
    platform component would use; the cost is hash collisions, visible as
    a small accuracy drop in E5.
    """

    def __init__(self, n_features: int = 2048, normalize: bool = True):
        if n_features < 2:
            raise MLError("n_features must be >= 2")
        self.n_features = n_features
        self.normalize = normalize

    def _bucket(self, term: str) -> tuple[int, float]:
        # SHA-based bucketing: Python's builtin str hash is salted per
        # process, which would make runs irreproducible.
        from repro.crypto.hashing import sha256_bytes

        digest = sha256_bytes(f"repro-hash-vec:{term}".encode("utf-8"))
        value = int.from_bytes(digest[:8], "big")
        bucket = value % self.n_features
        sign = 1.0 if (value >> 60) & 1 else -1.0
        return bucket, sign

    def transform(self, texts: list[str]) -> np.ndarray:
        matrix = np.zeros((len(texts), self.n_features), dtype=np.float64)
        for row, counts in enumerate(count_terms(texts)):
            for term, count in counts.items():
                bucket, sign = self._bucket(term)
                matrix[row, bucket] += sign * count
        if self.normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            matrix /= norms
        return matrix

    # fit/fit_transform provided for API symmetry; fitting is a no-op.
    def fit(self, texts: list[str]) -> "HashingVectorizer":
        return self

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        return self.transform(texts)
