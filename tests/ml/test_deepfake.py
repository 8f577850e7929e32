"""Simulated multimedia tamper detection."""

import numpy as np
import pytest

from repro.errors import MLError
from repro.ml import DeepfakeDetector, MediaFingerprint, capture_signal, tamper_signal


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def signal(rng):
    return capture_signal(rng, length=2048)


@pytest.fixture
def fingerprint(signal):
    return MediaFingerprint.of(signal)


def test_authentic_signal_scores_zero(fingerprint, signal):
    assert DeepfakeDetector().tamper_score(fingerprint, signal) == 0.0


def test_honest_reencode_below_threshold(fingerprint, signal, rng):
    noisy = signal + rng.normal(0, 0.01, len(signal))
    detector = DeepfakeDetector()
    assert not detector.is_tampered(fingerprint, noisy)


def test_tampered_signal_detected(fingerprint, signal, rng):
    tampered, mask = tamper_signal(signal, rng, n_segments=3)
    detector = DeepfakeDetector()
    assert mask.any()
    assert detector.is_tampered(fingerprint, tampered)
    assert detector.tamper_score(fingerprint, tampered) > 0.05


def test_score_scales_with_tampering(fingerprint, signal, rng):
    light, _ = tamper_signal(signal, rng, n_segments=1, segment_length=64)
    heavy, _ = tamper_signal(signal, rng, n_segments=8, segment_length=128)
    detector = DeepfakeDetector()
    assert detector.tamper_score(fingerprint, heavy) > detector.tamper_score(fingerprint, light)


def test_truncation_penalized(fingerprint, signal):
    truncated = signal[: len(signal) // 2]
    assert DeepfakeDetector().tamper_score(fingerprint, truncated) >= 0.5


def test_tamper_mask_matches_strength(signal, rng):
    tampered, mask = tamper_signal(signal, rng, n_segments=2, segment_length=100)
    changed = np.where(signal != tampered)[0]
    assert set(changed) <= set(np.where(mask)[0])


def test_fingerprint_block_size_validation(signal):
    with pytest.raises(MLError):
        MediaFingerprint.of(signal, block_size=1)


def test_short_signal_rejected():
    with pytest.raises(MLError):
        MediaFingerprint.of(np.zeros(10), block_size=64)


def test_suspect_shorter_than_one_block_scores_one(fingerprint, signal):
    detector = DeepfakeDetector()
    assert detector.tamper_score(fingerprint, signal[: fingerprint.block_size - 1]) == 1.0
    with pytest.raises(MLError, match="1-D"):
        detector.tamper_score(fingerprint, signal.reshape(2, -1))


def test_tamper_requires_segments(signal, rng):
    with pytest.raises(MLError):
        tamper_signal(signal, rng, n_segments=0)
