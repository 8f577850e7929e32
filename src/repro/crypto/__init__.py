"""Cryptographic substrate: hashing, Merkle trees, Ed25519 key pairs.

Built from scratch (stdlib ``hashlib`` only) so the blockchain layer has
verifiable, dependency-free primitives.
"""

from repro.crypto.batch import verify_many
from repro.crypto.ed25519 import verify_batch
from repro.crypto.hashing import hash_json, sha256_bytes, sha256_hex, short_id
from repro.crypto.keys import KeyPair, address_from_public_key, verify_signature
from repro.crypto.merkle import EMPTY_ROOT, MerkleProof, MerkleTree

__all__ = [
    "hash_json",
    "sha256_bytes",
    "sha256_hex",
    "short_id",
    "KeyPair",
    "address_from_public_key",
    "verify_signature",
    "verify_batch",
    "verify_many",
    "EMPTY_ROOT",
    "MerkleProof",
    "MerkleTree",
]
