"""Hashing primitives used across the blockchain substrate.

Everything in the chain layer is content-addressed through these helpers
so that the digest scheme lives in exactly one place.  Digests are
returned as lowercase hex strings (the ledger stores and compares them as
strings) with raw-byte variants available where performance matters.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "sha256_bytes",
    "sha256_hex",
    "sha512_bytes",
    "canonical_json",
    "hash_json",
    "short_id",
]


def sha256_bytes(data: bytes) -> bytes:
    """SHA-256 of *data* as 32 raw bytes."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """SHA-256 of *data* as a 64-char lowercase hex string."""
    return hashlib.sha256(data).hexdigest()


def sha512_bytes(data: bytes) -> bytes:
    """SHA-512 of *data* as 64 raw bytes (used by Ed25519)."""
    return hashlib.sha512(data).digest()


# ``json.dumps`` with any non-default argument builds a new encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)


def canonical_json(obj: Any) -> bytes:
    """The canonical JSON bytes of *obj*: keys sorted, separators fixed,
    anything not JSON-native as ``str``, UTF-8.  Logically equal objects
    encode identically regardless of insertion order; the transaction
    signing payload, :func:`hash_json` and the store codec all use it."""
    return _CANONICAL.encode(obj).encode("utf-8")


def hash_json(obj: Any) -> str:
    """SHA-256 digest of :func:`canonical_json` of *obj*."""
    return sha256_hex(canonical_json(obj))


def short_id(digest: str, length: int = 12) -> str:
    """Human-friendly prefix of a hex digest, for logs and repr()s."""
    return digest[:length]
