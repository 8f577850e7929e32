"""Simulated multimedia tamper detection (the Fig. 1 "fake multimedia
detection component").

The paper's deepfake concern (Face2Face, FakeApp, §I) is about detecting
manipulated audiovisual signals.  Real video models are out of scope
offline, so — per the substitution rule in DESIGN.md — media is modelled
as a 1-D sampled signal with a registered *fingerprint* (per-block
statistics committed at capture time, e.g. on-chain).  Tampering
replaces signal segments; the detector compares a suspect signal's block
statistics against the registered fingerprint and scores the fraction of
inconsistent blocks.

This preserves the code path the platform needs: a media score in
[0, 1] fused with the text score, with ground truth available because
the tamper mask is known by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._numpy import np
from repro.crypto.hashing import sha256_hex
from repro.errors import MLError

__all__ = ["MediaFingerprint", "capture_signal", "tamper_signal", "DeepfakeDetector"]


@dataclass(frozen=True)
class MediaFingerprint:
    """Per-block commitments to a captured signal.

    ``block_hashes`` detect any bit-level change; ``block_means`` /
    ``block_stds`` allow a *graded* inconsistency score for re-encoded
    (noisy but honest) copies, so mere recompression does not score as a
    deepfake.
    """

    block_size: int
    block_hashes: tuple[str, ...]
    block_means: tuple[float, ...]
    block_stds: tuple[float, ...]

    @classmethod
    def of(cls, signal: np.ndarray, block_size: int = 64) -> "MediaFingerprint":
        if block_size < 2:
            raise MLError("block_size must be >= 2")
        blocks = _blocks(signal, block_size)
        if not blocks:
            raise MLError("signal must be at least one block long")
        return cls(
            block_size=block_size,
            block_hashes=tuple(sha256_hex(b.tobytes()) for b in blocks),
            block_means=tuple(float(b.mean()) for b in blocks),
            block_stds=tuple(float(b.std()) for b in blocks),
        )


def _blocks(signal: np.ndarray, block_size: int) -> list[np.ndarray]:
    """The whole blocks of a 1-D signal (none if it is shorter than one)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise MLError("signal must be 1-D")
    n_blocks = len(signal) // block_size
    return [signal[i * block_size : (i + 1) * block_size] for i in range(n_blocks)]


def capture_signal(rng: np.random.Generator, length: int = 2048) -> np.ndarray:
    """Synthesize an 'authentic capture': smooth trend + sensor noise."""
    t = np.linspace(0.0, 8.0 * np.pi, length)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    amplitudes = rng.uniform(0.5, 1.5, size=3)
    trend = sum(a * np.sin((k + 1) * t / 3 + p) for k, (a, p) in enumerate(zip(amplitudes, phases)))
    return trend + rng.normal(0.0, 0.05, size=length)


def tamper_signal(
    signal: np.ndarray,
    rng: np.random.Generator,
    n_segments: int = 3,
    segment_length: int = 128,
    strength: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Deepfake-style manipulation: splice alien segments into the signal.

    Returns ``(tampered_signal, mask)`` where mask marks altered samples.
    """
    if n_segments < 1:
        raise MLError("need at least one tampered segment")
    tampered = np.asarray(signal, dtype=np.float64).copy()
    mask = np.zeros(len(tampered), dtype=bool)
    for _ in range(n_segments):
        start = int(rng.integers(0, max(1, len(tampered) - segment_length)))
        stop = start + segment_length
        alien = strength * rng.normal(0.0, 1.0, size=stop - start) + rng.uniform(-2, 2)
        tampered[start:stop] = alien
        mask[start:stop] = True
    return tampered, mask


class DeepfakeDetector:
    """Scores a suspect signal against its registered fingerprint."""

    def __init__(self, mean_tolerance: float = 0.25, std_tolerance: float = 0.25):
        self.mean_tolerance = mean_tolerance
        self.std_tolerance = std_tolerance

    def tamper_score(self, fingerprint: MediaFingerprint, suspect: np.ndarray) -> float:
        """Fraction of blocks statistically inconsistent with capture.

        A truncated/extended suspect is suspicious in proportion to the
        missing/extra blocks, so length mismatch contributes too; one
        shorter than a registered block scores 1.0.
        """
        blocks = _blocks(suspect, fingerprint.block_size)
        n_registered = len(fingerprint.block_hashes)
        n_compare = min(len(blocks), n_registered)
        if n_compare == 0:
            return 1.0
        inconsistent = 0
        for index in range(n_compare):
            block = blocks[index]
            if sha256_hex(block.tobytes()) == fingerprint.block_hashes[index]:
                continue  # bit-identical: certainly consistent
            mean_gap = abs(float(block.mean()) - fingerprint.block_means[index])
            std_gap = abs(float(block.std()) - fingerprint.block_stds[index])
            if mean_gap > self.mean_tolerance or std_gap > self.std_tolerance:
                inconsistent += 1
        length_penalty = abs(len(blocks) - n_registered)
        return (inconsistent + length_penalty) / max(len(blocks), n_registered)

    def is_tampered(
        self, fingerprint: MediaFingerprint, suspect: np.ndarray, threshold: float = 0.05
    ) -> bool:
        return self.tamper_score(fingerprint, suspect) > threshold
