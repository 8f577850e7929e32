"""From-scratch ML stack: vectorizers, linear classifiers, stylometric
features, ensembles, metrics, and simulated deepfake detection.

Substitutes for the TensorFlow models the paper references — the
platform consumes a P(fake) score, and these NumPy models provide it
with three distinct inductive biases (lexical, generative, stylometric).
"""

from repro.ml.deepfake import DeepfakeDetector, MediaFingerprint, capture_signal, tamper_signal
from repro.ml.ensemble import FakeNewsScorer
from repro.ml.features import FEATURE_NAMES, StylometricExtractor
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    ClassificationReport,
    accuracy,
    classification_report,
    confusion_matrix,
    f1_score,
    precision,
    precision_at_k,
    recall,
    roc_auc,
)
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.svm import LinearSVM
from repro.ml.topic_model import TopicClassifier
from repro.ml.vectorize import CountVectorizer, HashingVectorizer, TfidfVectorizer

__all__ = [
    "DeepfakeDetector",
    "MediaFingerprint",
    "capture_signal",
    "tamper_signal",
    "FakeNewsScorer",
    "FEATURE_NAMES",
    "StylometricExtractor",
    "LogisticRegression",
    "ClassificationReport",
    "accuracy",
    "classification_report",
    "confusion_matrix",
    "f1_score",
    "precision",
    "precision_at_k",
    "recall",
    "roc_auc",
    "MultinomialNaiveBayes",
    "LinearSVM",
    "TopicClassifier",
    "CountVectorizer",
    "HashingVectorizer",
    "TfidfVectorizer",
]
