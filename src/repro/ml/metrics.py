"""Classification metrics: accuracy, P/R/F1, confusion matrix, ROC-AUC.

Conventions: label 1 is the positive ("fake") class; scores are higher-
means-more-positive.  AUC is computed by the Mann-Whitney rank statistic
with midrank tie handling, so it is exact for any score distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._numpy import np
from repro.errors import MLError

__all__ = [
    "accuracy",
    "precision",
    "recall",
    "f1_score",
    "confusion_matrix",
    "roc_auc",
    "precision_at_k",
    "ClassificationReport",
    "classification_report",
]


def _check(y_true: np.ndarray, y_other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_other = np.asarray(y_other)
    if len(y_true) != len(y_other):
        raise MLError("length mismatch between labels and predictions/scores")
    if len(y_true) == 0:
        raise MLError("empty evaluation set")
    return y_true, y_other


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    """(true_negative, false_positive, false_negative, true_positive)."""
    y_true, y_pred = _check(y_true, y_pred)
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    return tn, fp, fn, tp


def precision(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    _, fp, _, tp = confusion_matrix(y_true, y_pred)
    return tp / (tp + fp) if (tp + fp) else 0.0


def recall(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    _, _, fn, tp = confusion_matrix(y_true, y_pred)
    return tp / (tp + fn) if (tp + fn) else 0.0


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    p = precision(y_true, y_pred)
    r = recall(y_true, y_pred)
    return 2 * p * r / (p + r) if (p + r) else 0.0


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Exact AUC via midranks (equivalent to the trapezoidal ROC area)."""
    y_true, scores = _check(y_true, np.asarray(scores, dtype=np.float64))
    positives = int(np.sum(y_true == 1))
    negatives = len(y_true) - positives
    if positives == 0 or negatives == 0:
        raise MLError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    positive_rank_sum = float(ranks[np.asarray(y_true) == 1].sum())
    return (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def precision_at_k(y_true: np.ndarray, scores: np.ndarray, k: int) -> float:
    """Fraction of the k highest-scored items that are positive."""
    y_true, scores = _check(y_true, np.asarray(scores, dtype=np.float64))
    if not 1 <= k <= len(y_true):
        raise MLError(f"k={k} out of range for {len(y_true)} items")
    top = np.argsort(-scores, kind="mergesort")[:k]
    return float(np.mean(np.asarray(y_true)[top] == 1))


@dataclass(frozen=True)
class ClassificationReport:
    """All headline metrics for one model/dataset pair."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float

    def as_row(self, name: str) -> str:
        return (
            f"{name:<24} acc={self.accuracy:.3f} p={self.precision:.3f} "
            f"r={self.recall:.3f} f1={self.f1:.3f} auc={self.auc:.3f}"
        )


def classification_report(
    y_true: np.ndarray, y_pred: np.ndarray, scores: np.ndarray
) -> ClassificationReport:
    return ClassificationReport(
        accuracy=accuracy(y_true, y_pred),
        precision=precision(y_true, y_pred),
        recall=recall(y_true, y_pred),
        f1=f1_score(y_true, y_pred),
        auc=roc_auc(y_true, scores),
    )
