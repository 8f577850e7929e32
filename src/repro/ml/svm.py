"""Linear SVM trained with Pegasos-style SGD on the hinge loss.

The third classical text baseline alongside NB and logistic regression.
Labels are {0, 1} at the API (mapped to ±1 internally).  A Platt-style
sigmoid squash of the margin provides the [0, 1] fake-score the platform
consumes (uncalibrated, which is fine for ranking use).
"""

from __future__ import annotations

from repro._numpy import np
from repro.errors import MLError

__all__ = ["LinearSVM"]


class LinearSVM:
    """L2-regularized hinge-loss linear classifier (Pegasos SGD)."""

    def __init__(self, l2: float = 1e-4, n_epochs: int = 30, seed: int = 0):
        if l2 <= 0 or n_epochs < 1:
            raise MLError("l2 must be > 0 and n_epochs >= 1")
        self.l2 = l2
        self.n_epochs = n_epochs
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise MLError("X must be 2-D with one row per label")
        if not set(np.unique(y)) <= {0.0, 1.0}:
            raise MLError("labels must be 0/1")
        signs = np.where(y > 0, 1.0, -1.0)
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.seed)
        weights = np.zeros(n_features)
        bias = 0.0
        step = 0
        for _ in range(self.n_epochs):
            for index in rng.permutation(n_samples):
                step += 1
                eta = 1.0 / (self.l2 * step)
                margin = signs[index] * (X[index] @ weights + bias)
                weights *= 1.0 - eta * self.l2
                if margin < 1.0:
                    weights += eta * signs[index] * X[index]
                    bias += eta * signs[index]
        self.weights_ = weights
        self.bias_ = bias
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.weights_ is None:
            raise MLError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.weights_):
            raise MLError(
                f"feature dimension mismatch: fitted {len(self.weights_)}, got {X.shape[1]}"
            )
        return X @ self.weights_ + self.bias_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)

    def score_fake(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid-squashed margin as an uncalibrated P(fake)."""
        margins = self.decision_function(X)
        return 1.0 / (1.0 + np.exp(-np.clip(margins, -35.0, 35.0)))
