"""Shingles, Jaccard, MinHash estimation, cosine similarity."""

import math
import pathlib
import subprocess
import sys
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import (
    CorpusGenerator,
    cosine_similarity,
    estimated_jaccard,
    jaccard,
    minhash_signature,
    shingles,
    tokenize,
)
from repro.mix64 import mix64

REPO = pathlib.Path(__file__).parents[2]


def test_tokenize_normalizes():
    assert tokenize("Hello, World! 42") == ["hello", "world", "42"]
    assert tokenize("") == []


def test_shingles_basic():
    result = shingles("a b c d", k=3)
    assert result == {"a b c", "b c d"}


def test_shingles_short_text():
    assert shingles("a b", k=3) == {"a b"}
    assert shingles("", k=3) == set()


def test_jaccard_bounds():
    a, b = {"x", "y"}, {"y", "z"}
    assert jaccard(a, a) == 1.0
    assert jaccard(a, {"q"}) == 0.0
    assert jaccard(a, b) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 1.0
    assert jaccard(a, set()) == 0.0


def test_minhash_identical_sets():
    sh = shingles("the quick brown fox jumps over the lazy dog", 2)
    sig = minhash_signature(sh)
    assert estimated_jaccard(sig, sig) == 1.0


def test_minhash_estimates_jaccard():
    gen = CorpusGenerator(seed=8)
    parent = gen.factual()
    child = gen.relay_derivation(parent, "x", 1.0)
    other = gen.factual()
    sh_parent, sh_child, sh_other = (
        shingles(parent.text), shingles(child.text), shingles(other.text)
    )
    exact_close = jaccard(sh_child, sh_parent)
    exact_far = jaccard(sh_child, sh_other)
    est_close = estimated_jaccard(minhash_signature(sh_child), minhash_signature(sh_parent))
    est_far = estimated_jaccard(minhash_signature(sh_child), minhash_signature(sh_other))
    assert abs(est_close - exact_close) < 0.2
    assert est_close > est_far  # ordering preserved


def test_minhash_signature_length_mismatch():
    with pytest.raises(ValueError):
        estimated_jaccard((1, 2), (1, 2, 3))


def test_minhash_empty_set():
    sig = minhash_signature(set(), n_hashes=16)
    assert len(sig) == 16


def test_cosine_identical():
    assert cosine_similarity("a b c", "a b c") == pytest.approx(1.0)


def test_cosine_disjoint():
    assert cosine_similarity("a b", "x y") == 0.0


def test_cosine_empty():
    assert cosine_similarity("", "a") == 0.0


def test_cosine_order_blind():
    assert cosine_similarity("a b c", "c b a") == pytest.approx(1.0)


def test_shingle_similarity_order_sensitive():
    # Unlike cosine, shingles notice reordering — why provenance uses them.
    same_words_reordered = jaccard(shingles("a b c d e f"), shingles("f e d c b a"))
    assert same_words_reordered < 0.5


# -- the hash family -----------------------------------------------------------


def _shingle_hash(shingle: str) -> int:
    return int.from_bytes(blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "little")


@settings(max_examples=60, deadline=None)
@given(st.sets(st.text(max_size=12), min_size=1, max_size=30), st.integers(1, 70))
def test_every_lane_is_the_scalar_min_over_the_set(shingle_set, n_hashes):
    """The array expression against SplitMix64 on Python ints, lane by lane."""
    hashes = [_shingle_hash(s) for s in shingle_set]
    expected = tuple(min(mix64(h + mix64(lane)) for h in hashes) for lane in range(n_hashes))
    signature = minhash_signature(shingle_set, n_hashes)
    assert signature == expected
    assert all(type(value) is int for value in signature)


_PINNED_TEXT = "the council approved the new budget on monday after a long public debate"
_PINNED_SHA256 = "6a3d5975887c611dcdd0da86011c32eea4eccc116dbc2f1ef1e9915ac4f86bdf"

_SIGNATURE_SCRIPT = """
import hashlib, sys
from repro.corpus.similarity import minhash_signature, shingles
ordered = sorted(shingles(sys.argv[1]))
for order in (ordered, ordered[::-1]):
    inserted = set()
    for shingle in order:
        inserted.add(shingle)
    print(hashlib.sha256(repr(minhash_signature(inserted)).encode()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_signature_is_the_same_in_every_process_and_insertion_order(hash_seed):
    proc = subprocess.run(
        [sys.executable, "-c", _SIGNATURE_SCRIPT, _PINNED_TEXT],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": hash_seed},
    )
    assert proc.stdout.split() == [_PINNED_SHA256] * 2


def test_estimator_is_calibrated_against_exact_jaccard():
    """Unbiased, and no noisier than 64 independent lanes would be."""
    gen = CorpusGenerator(seed=2024)
    pairs = []
    for index in range(140):
        parent = gen.factual()
        derive = (gen.relay_derivation, gen.benign_derivation, gen.malicious_derivation)[index % 3]
        pairs.append((parent, derive(parent, "x", 1.0)))
        pairs.append((parent, gen.insertion_fake(parent, "x", 2.0, n_insertions=1 + index % 4)))
        pairs.append((parent, gen.factual()))
    assert len(pairs) >= 400
    errors, z_scores = [], []
    for left, right in pairs:
        a, b = shingles(left.text), shingles(right.text)
        exact = jaccard(a, b)
        estimate = estimated_jaccard(minhash_signature(a), minhash_signature(b))
        errors.append(estimate - exact)
        if 0.0 < exact < 1.0:
            z_scores.append((estimate - exact) / math.sqrt(exact * (1 - exact) / 64))
        else:
            assert estimate == exact
    assert len(z_scores) >= 200
    assert abs(sum(errors) / len(errors)) <= 0.01
    assert math.sqrt(sum(z * z for z in z_scores) / len(z_scores)) <= 1.1
