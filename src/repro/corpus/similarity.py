"""Text similarity: shingles, MinHash, and cosine — provenance's toolbox.

The platform discovers an article's parent references by content
similarity (§VI: "analyze the news content searching and discovering
the parent references").  Three interchangeable measures are provided
so ablation A1 can compare cost/recall:

- exact k-shingle Jaccard (the reference measure),
- MinHash-estimated Jaccard (sublinear sketch, what a production system
  would index),
- cosine over term counts (robust to reordering, blind to word order).
"""

from __future__ import annotations

import math
from collections import Counter
from hashlib import blake2b

import numpy as np

from repro.corpus.lexicon import tokenize
from repro.mix64 import MASK64, mix64_array

__all__ = [
    "shingles",
    "jaccard",
    "MinHashSignature",
    "minhash_signature",
    "estimated_jaccard",
    "cosine_similarity",
]


def shingles(text: str, k: int = 3) -> set[str]:
    """The set of k-token shingles of *text*."""
    tokens = tokenize(text)
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)}


def jaccard(a: set[str], b: set[str]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    return intersection / (len(a) + len(b) - intersection)


MinHashSignature = tuple[int, ...]


def minhash_signature(shingle_set: set[str], n_hashes: int = 64) -> MinHashSignature:
    """MinHash sketch: the minimum of each hash lane over the set.

    Each shingle is hashed once (BLAKE2b, 8 bytes — never builtin
    ``hash()``, which is salted per process) to ``x``; lane ``i`` remixes
    it as ``mix64(x + mix64(i))``, so all ``n_hashes × |set|`` lane values
    are one array expression.  An empty set gets the all-``MASK64``
    sentinel signature.
    """
    if not shingle_set:
        return (MASK64,) * n_hashes
    digests = b"".join(blake2b(s.encode("utf-8"), digest_size=8).digest() for s in shingle_set)
    x = np.frombuffer(digests, dtype="<u8")
    salts = mix64_array(np.arange(n_hashes, dtype=np.uint64))
    return tuple(mix64_array(x[None, :] + salts[:, None]).min(axis=1).tolist())


def estimated_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Estimate Jaccard similarity from two equal-length signatures."""
    if len(a) != len(b):
        raise ValueError("signatures must have equal length")
    if not a:
        return 0.0
    return sum(1 for x, y in zip(a, b) if x == y) / len(a)


def cosine_similarity(text_a: str, text_b: str) -> float:
    """Cosine similarity over raw term counts."""
    counts_a = Counter(tokenize(text_a))
    counts_b = Counter(tokenize(text_b))
    if not counts_a or not counts_b:
        return 0.0
    dot = sum(counts_a[term] * counts_b[term] for term in counts_a.keys() & counts_b.keys())
    norm_a = math.sqrt(sum(c * c for c in counts_a.values()))
    norm_b = math.sqrt(sum(c * c for c in counts_b.values()))
    return dot / (norm_a * norm_b)
