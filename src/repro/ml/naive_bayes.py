"""Multinomial Naive Bayes — the classic fake-news text baseline.

Works on non-negative count/TF-IDF matrices.  Log-space throughout with
Laplace smoothing; binary or multiclass.
"""

from __future__ import annotations

from repro._numpy import np
from repro.errors import MLError

__all__ = ["MultinomialNaiveBayes"]


class MultinomialNaiveBayes:
    """NB over term counts with Laplace (add-alpha) smoothing."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise MLError("smoothing alpha must be positive")
        self.alpha = alpha
        self.classes_: np.ndarray | None = None
        self._log_prior: np.ndarray | None = None
        self._log_likelihood: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MultinomialNaiveBayes":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise MLError("X must be 2-D with one row per label")
        if np.any(X < 0):
            raise MLError("multinomial NB requires non-negative features")
        self.classes_ = np.unique(y)
        n_classes, n_features = len(self.classes_), X.shape[1]
        self._log_prior = np.zeros(n_classes)
        self._log_likelihood = np.zeros((n_classes, n_features))
        for index, label in enumerate(self.classes_):
            rows = X[y == label]
            self._log_prior[index] = np.log(len(rows) / len(X))
            term_counts = rows.sum(axis=0) + self.alpha
            self._log_likelihood[index] = np.log(term_counts / term_counts.sum())
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        if self._log_prior is None or self._log_likelihood is None:
            raise MLError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return X @ self._log_likelihood.T + self._log_prior

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None or self._joint_log_likelihood(X) is not None
        joint = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(joint, axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities via log-sum-exp normalization."""
        joint = self._joint_log_likelihood(X)
        joint -= joint.max(axis=1, keepdims=True)
        exp = np.exp(joint)
        return exp / exp.sum(axis=1, keepdims=True)

    def score_fake(self, X: np.ndarray) -> np.ndarray:
        """P(class == 1) — the platform's 'probability fake' contract."""
        if self.classes_ is None:
            raise MLError("model is not fitted")
        proba = self.predict_proba(X)
        positive = np.where(self.classes_ == 1)[0]
        if len(positive) == 0:
            return np.zeros(len(proba))
        return proba[:, positive[0]]
