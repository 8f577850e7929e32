"""Known-bad corpus for the DET family (every hazard, one per line-ish)."""

import os
import random
import secrets
import uuid

from repro.crypto import MerkleTree, hash_json


def ambient_jitter() -> float:
    return random.random() * 0.5  # DET001


def ambient_pick(options):
    return random.choice(options)  # DET001


def fresh_rng():
    return random.Random()  # DET002


def system_rng():
    return random.SystemRandom()  # DET002


def entropy_id() -> str:
    return uuid.uuid4().hex  # DET003


def entropy_seed() -> bytes:
    return os.urandom(32)  # DET003


def entropy_token() -> str:
    return secrets.token_hex(8)  # DET003


def unordered_root(digests):
    return MerkleTree(set(digests))  # DET004


def unordered_payload(tags):
    return hash_json({tag for tag in tags})  # DET004


def salted_bucket(shingle: str, buckets: int) -> int:
    return hash(shingle) % buckets  # DET006 (in a repro.* module)


class SaltedKey:
    def __hash__(self) -> int:
        return hash(("key", id(self)))

    def lane(self, value: str) -> int:
        return hash(value) & 0xFFFF  # DET006: a method, but not __hash__
