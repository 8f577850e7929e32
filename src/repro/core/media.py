"""Multimedia provenance: the Fig. 1 "fake multimedia detection" component
wired into the platform.

The deepfake problem the paper opens with (Face2Face, FakeApp) is an
*authenticity* problem: is this clip the one that was captured?  The
blockchain answer implemented here:

1. at capture time, the capturing account registers the media's
   fingerprint (per-block signal statistics, :mod:`repro.ml.deepfake`)
   on-chain — an immutable, timestamped commitment;
2. when an article attaches media, the platform re-derives the suspect
   fingerprint and compares it against the registered one — a read —
   and records each registered asset's tamper score in the same unit as
   the article's publication;
3. the article's AI signal becomes a fusion of text P(fake) and media
   tamper score, committed as the supply-chain record's ``ai_score``, so
   a deepfaked clip drags the article's ranking down even when the text
   reads neutrally, on every peer's ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._numpy import np
from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key
from repro.ml.deepfake import DeepfakeDetector, MediaFingerprint

__all__ = ["MediaRegistryContract", "MediaVerifier", "MediaAssessment", "media_key"]


def media_key(media_id: str) -> str:
    return f"media:{media_id}"


def _fingerprint_from_record(record: dict) -> MediaFingerprint:
    return MediaFingerprint(
        block_size=record["block_size"],
        block_hashes=tuple(record["block_hashes"]),
        block_means=tuple(record["block_means"]),
        block_stds=tuple(record["block_stds"]),
    )


class MediaRegistryContract(Contract):
    """On-chain registry of media fingerprints, committed at capture."""

    name = "media"

    @contract_method
    def register(
        self, ctx: ContractContext, media_id: str, block_size: int, block_hashes: list[str],
        block_means: list[float], block_stds: list[float], description: str,
    ):
        """Commit a capture fingerprint (registered identities only): its
        block size, and per block a hash, a mean and a standard deviation.
        Every reader of the registration rebuilds the fingerprint from
        them, so one value it cannot use would break every assessment of
        the asset, and every publish that attaches it, for good."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(caller is not None, "unregistered identities cannot register media")
        key = media_key(media_id)
        ctx.require(ctx.get(key) is None, f"media {media_id} already registered")
        ctx.require(block_size >= 1, "block_size must be at least 1")
        ctx.require(block_hashes, "fingerprint must carry block hashes")
        ctx.require(
            len(block_means) == len(block_stds) == len(block_hashes),
            "block_means and block_stds must be as long as block_hashes",
        )
        # A NaN statistic compares as consistent with any block, so a
        # tampered copy would score as authentic.
        ctx.require(all(map(math.isfinite, block_means + block_stds)),
                    "block_means and block_stds must be finite")
        record = {
            "media_id": media_id,
            "fingerprint": {"block_size": block_size, "block_hashes": block_hashes,
                            "block_means": block_means, "block_stds": block_stds},
            "description": description,
            "captured_by": ctx.caller,
            "registered_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("media-registered", media_id=media_id, blocks=len(block_hashes))
        return record

    @contract_method
    def get_media(self, ctx: ContractContext, media_id: str):
        return ctx.get(media_key(media_id))

    @contract_method
    def record_assessment(
        self, ctx: ContractContext, media_id: str, article_id: str, tamper_score: float
    ):
        """Attach a tamper assessment of an article's media to the ledger."""
        ctx.require(ctx.get(media_key(media_id)) is not None, f"no media {media_id}")
        ctx.require(0.0 <= tamper_score <= 1.0, "tamper_score must be in [0, 1]")
        key = f"mediacheck:{article_id}:{media_id}"
        ctx.require(ctx.get(key) is None, "assessment already recorded")
        record = {
            "media_id": media_id,
            "article_id": article_id,
            "tamper_score": tamper_score,
            "assessed_by": ctx.caller,
            "assessed_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("media-assessed", media_id=media_id, article_id=article_id,
                 tamper_score=tamper_score)
        return record


@dataclass(frozen=True)
class MediaAssessment:
    """Verdict for one attached media asset."""

    media_id: str
    registered: bool
    tamper_score: float  # 1.0 when unregistered: unverifiable provenance

    @property
    def authentic(self) -> bool:
        return self.registered and self.tamper_score <= 0.05


class MediaVerifier:
    """Off-chain verification logic over the on-chain registry."""

    def __init__(self, detector: DeepfakeDetector | None = None):
        self.detector = detector or DeepfakeDetector()

    @staticmethod
    def fingerprint_record(signal: np.ndarray, block_size: int = 64) -> dict:
        """Fingerprint a captured signal into the contract's record form:
        the arguments ``media.register`` takes beside the id and the
        description."""
        fingerprint = MediaFingerprint.of(signal, block_size)
        return {
            "block_size": fingerprint.block_size,
            "block_hashes": list(fingerprint.block_hashes),
            "block_means": list(fingerprint.block_means),
            "block_stds": list(fingerprint.block_stds),
        }

    def assess(self, registered_record: dict | None, suspect_signal: np.ndarray,
               media_id: str) -> MediaAssessment:
        """Score a suspect signal against its (possibly absent) registration.

        Unregistered media scores 1.0 — content whose capture provenance
        cannot be established is treated as unverifiable, the same
        conservative stance the factual database takes toward
        untraceable text.
        """
        if registered_record is None:
            return MediaAssessment(media_id=media_id, registered=False, tamper_score=1.0)
        fingerprint = _fingerprint_from_record(registered_record["fingerprint"])
        score = self.detector.tamper_score(fingerprint, suspect_signal)
        return MediaAssessment(media_id=media_id, registered=True, tamper_score=score)
