"""Binary logistic regression trained by full-batch gradient descent.

NumPy-only.  L2-regularized, with a bias column handled internally and a
fixed iteration budget — at these corpus sizes full-batch descent with an
adaptive step converges in well under a second.
"""

from __future__ import annotations

from repro._numpy import np
from repro.errors import MLError

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() finite for extreme margins.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class LogisticRegression:
    """L2-regularized logistic regression for {0, 1} labels."""

    def __init__(
        self,
        learning_rate: float = 0.5,
        n_iterations: int = 300,
        l2: float = 1e-3,
        tolerance: float = 1e-6,
    ):
        if learning_rate <= 0 or n_iterations < 1:
            raise MLError("learning_rate must be > 0 and n_iterations >= 1")
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.l2 = l2
        self.tolerance = tolerance
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.converged_at_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise MLError("X must be 2-D with one row per label")
        if not set(np.unique(y)) <= {0.0, 1.0}:
            raise MLError("labels must be 0/1")
        n_samples, n_features = X.shape
        weights = np.zeros(n_features)
        bias = 0.0
        previous_loss = np.inf
        for iteration in range(self.n_iterations):
            probabilities = _sigmoid(X @ weights + bias)
            error = probabilities - y
            gradient_w = X.T @ error / n_samples + self.l2 * weights
            gradient_b = float(error.mean())
            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b
            # Cross-entropy loss for the convergence check.
            eps = 1e-12
            loss = float(
                -np.mean(y * np.log(probabilities + eps) + (1 - y) * np.log(1 - probabilities + eps))
                + 0.5 * self.l2 * float(weights @ weights)
            )
            if abs(previous_loss - loss) < self.tolerance:
                self.converged_at_ = iteration
                break
            previous_loss = loss
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

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1 - positive, positive])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)

    def score_fake(self, X: np.ndarray) -> np.ndarray:
        """P(fake) in [0, 1] — the platform scoring contract."""
        return self.predict_proba(X)[:, 1]
