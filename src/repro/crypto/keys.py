"""Key pairs and account addresses for blockchain participants.

A :class:`KeyPair` wraps an Ed25519 seed and exposes signing; the public
key hashed with SHA-256 yields the account *address* used throughout the
ledger.  Key generation is deterministic when given a ``random.Random``
so whole experiments can be replayed from one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto import ed25519
from repro.crypto.hashing import sha256_hex
from repro.errors import CryptoError

__all__ = ["KeyPair", "address_from_public_key", "verify_signature"]

_ADDRESS_PREFIX = "acct:"


def address_from_public_key(public_key: bytes) -> str:
    """Derive the ledger address for a public key.

    Addresses are ``acct:`` plus the first 40 hex chars of the SHA-256 of
    the public key — short enough to read in logs, long enough that
    collisions are not a concern at simulation scale.
    """
    return _ADDRESS_PREFIX + sha256_hex(public_key)[:40]


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair plus its derived ledger address."""

    seed: bytes = field(repr=False)
    public_key: bytes
    address: str

    def __post_init__(self) -> None:
        # sign() goes by the seed alone, so a pair that does not belong
        # together would sign under one key and advertise another.
        if ed25519.generate_public_key(self.seed) != self.public_key:
            raise CryptoError("public key does not belong to the seed")

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyPair":
        """Create a fresh key pair from the caller's seeded *rng*.

        The rng is required on purpose: an implicit OS-entropy fallback
        would let one forgotten argument silently break the bit-identical
        reruns every experiment depends on (DESIGN.md §6).  Callers that
        genuinely want unreproducible keys can pass
        ``random.SystemRandom()`` explicitly.
        """
        if rng is None:
            raise CryptoError(
                "KeyPair.generate requires a seeded random.Random; "
                "implicit OS entropy would break run reproducibility"
            )
        seed = rng.getrandbits(256).to_bytes(32, "little")
        return cls.from_seed(seed)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != ed25519.SEED_BYTES:
            raise CryptoError("seed must be 32 bytes")
        public = ed25519.generate_public_key(seed)
        return cls(seed=seed, public_key=public, address=address_from_public_key(public))

    def sign(self, message: bytes) -> bytes:
        """Sign *message*, returning the 64-byte signature."""
        return ed25519.sign(self.seed, message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return ed25519.verify(self.public_key, message, signature)


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Module-level convenience mirroring :meth:`KeyPair.verify`."""
    return ed25519.verify(public_key, message, signature)
