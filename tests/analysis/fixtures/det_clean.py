"""Known-clean corpus for the DET family: the blessed idioms."""

import hashlib
import random

from repro.crypto import MerkleTree, hash_json


def seeded_jitter(seed: int) -> float:
    rng = random.Random(seed)
    return rng.random() * 0.5


def threaded_pick(rng: random.Random, options):
    return rng.choice(options)


def derived_rng(seed: int) -> random.Random:
    return random.Random(f"chaos:{seed}")


def ordered_root(digests):
    return MerkleTree(sorted(set(digests)))


def ordered_payload(tags):
    return hash_json(sorted({tag for tag in tags}))


def stable_bucket(shingle: str, buckets: int) -> int:
    digest = hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


class Key:
    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, Key) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("key", self.name))
