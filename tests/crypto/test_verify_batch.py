"""Exactness of batched Ed25519 verification.

``verify_batch`` must agree with per-signature ``verify`` on every
input — that is the whole contract.  The oracle here is
``_verify_reference``, the textbook check by naive double-and-add (no
table, no cache), kept in the module precisely so these tests and the
micro-benchmark have something that shares no precomputation with the
code under test.

Covered: mixed valid/invalid batches, a forged member, malformed
encodings, small-order public keys, non-canonical scalars,
torsion-defective signatures — alone, and the pair crafted to cancel in a
combined check, which is why there is none — determinism, and the
interplay with the digest-keyed verify cache and the bounded per-key
table cache.  The point cache starts empty in every test, so a batch of
the pool's keys is a batch of keys never seen before.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519 as e
from tests.conftest import OrderTwoKeyPair


@pytest.fixture(autouse=True)
def clean_caches():
    e.verify_cache_clear()
    e.point_cache_clear()
    e.batch_stats_clear()
    yield
    e.verify_cache_clear()
    e.point_cache_clear()
    e.batch_stats_clear()


def _signed(i: int, msg: bytes | None = None):
    seed = bytes([i]) * 32
    pk = e.generate_public_key(seed)
    message = msg if msg is not None else f"article-{i}".encode()
    return (pk, message, e.sign(seed, message))


# A reusable pool of honestly-signed items (signing is the slow part).
_POOL = [_signed(i) for i in range(8)]


def _oracle(items):
    return [e._verify_reference(pk, m, s) for pk, m, s in items]


def _run_batch(items):
    e.verify_cache_clear()  # force the curve path, not cached verdicts
    return e.verify_batch(items)


def test_empty_batch():
    assert e.verify_batch([]) == []


def test_all_valid_counts_one_call_and_its_items():
    assert _run_batch(_POOL) == [True] * len(_POOL)
    assert e.batch_stats() == {"calls": 1, "items": len(_POOL)}


def test_single_item_matches_verify():
    item = _POOL[0]
    assert _run_batch([item]) == [True]
    forged = (item[0], item[1], bytes(64))
    assert _run_batch([forged]) == [False]


def _pool_with_one_forged():
    items = list(_POOL)
    bad = bytearray(items[3][2])
    bad[40] ^= 0xFF
    items[3] = (items[3][0], items[3][1], bytes(bad))
    return items


def test_forged_signature_is_the_one_false_verdict():
    items = _pool_with_one_forged()
    verdicts = _run_batch(items)
    assert verdicts == _oracle(items)
    assert verdicts.count(False) == 1 and not verdicts[3]


def test_mixed_malformed_and_invalid():
    items = [
        _POOL[0],
        (b"short-key", b"m", bytes(64)),                  # bad pk length
        (_POOL[1][0], _POOL[1][1], b"short"),             # bad sig length
        (bytes(32), b"m", bytes(64)),                     # small-order pk (y=0)
        (b"\xff" * 32, b"m", bytes(64)),                  # non-point pk encoding
        (_POOL[2][0], _POOL[2][1] + b"!", _POOL[2][2]),   # wrong message
        # non-canonical s >= L
        (_POOL[3][0], _POOL[3][1],
         _POOL[3][2][:32] + int.to_bytes(e._L, 32, "little")),
        _POOL[4],
    ]
    assert _run_batch(items) == _oracle(items)


def _small_order_point():
    """A torsion point of order dividing 8 (but not the identity),
    found by clearing the prime-order component of an arbitrary point."""
    rng = random.Random(5)
    while True:
        encoded = int.to_bytes(rng.getrandbits(255), 32, "little")
        try:
            p = e._point_decompress(encoded)
        except Exception:
            continue
        torsion = e._point_mul(e._L, p)
        if not e._point_equal(torsion, e._IDENTITY):
            return torsion


def test_torsion_defective_signature_rejected():
    """R' = R + T with T small-order: the cofactorless check fails, and
    the batch must agree."""
    torsion = _small_order_point()
    pk, msg, sig = _POOL[5]
    r_shifted = e._point_compress(e._point_add(e._point_decompress(sig[:32]), torsion))
    forged = (pk, msg, r_shifted + sig[32:])
    assert not e._verify_reference(*forged)
    items = [_POOL[0], forged, _POOL[1]]
    assert _run_batch(items) == [True, False, True]
    # And alone, so the defect cannot hide behind batch-mates:
    assert _run_batch([forged]) == [False]


@pytest.mark.parametrize("seen", [False, True], ids=["cold", "seen"])
def test_two_signatures_crafted_to_cancel_get_the_verdict_of_verify(seen):
    """Two signatures made together, each off by the point of order 2:
    whatever the caches hold, the batch says what ``verify`` and the
    reference say of each — a combined check said ``[True, True]`` of
    them on keys it had never seen."""
    signers = [OrderTwoKeyPair.generate(random.Random(tag)) for tag in ("f1", "f2")]
    items = [(signer.public_key, b"m%d" % i, signer.sign(b"m%d" % i))
             for i, signer in enumerate(signers)]
    assert _oracle(items) == [False, False]
    if seen:
        assert [e.verify(*item) for item in items] == [False, False]
    assert _run_batch(items) == [False, False]
    assert _run_batch([_POOL[0], items[0], _POOL[1], items[1]]) == [True, False, True, False]
    e.verify_cache_clear()
    assert [e.verify(*item) for item in items] == [False, False]


def test_small_order_public_key_agrees():
    """A small-order A decompresses fine; verdicts (almost always
    False against honest h) must match the reference exactly."""
    small_pk = e._point_compress(_small_order_point())
    items = [(small_pk, b"news", bytes(64)), (small_pk, b"news", _POOL[0][2]), _POOL[6]]
    assert _run_batch(items) == _oracle(items)


def test_duplicate_items_in_one_batch():
    items = [_POOL[0], _POOL[0], _POOL[1], _POOL[0]]
    assert _run_batch(items) == [True, True, True, True]


def test_batch_is_deterministic():
    items = list(_POOL)
    bad = (items[2][0], items[2][1], bytes(64))
    items[2] = bad
    first = _run_batch(items)
    second = _run_batch(items)
    assert first == second == _oracle(items)


def test_batch_populates_verify_cache():
    e.verify_cache_clear()
    e.verify_batch(_POOL)
    stats = e.verify_cache_stats()
    assert stats["misses"] == len(_POOL)
    assert stats["size"] == len(_POOL)
    # Every later single verify is a cache hit: no curve math re-done.
    for item in _POOL:
        assert e.verify(*item)
    assert e.verify_cache_stats()["hits"] == len(_POOL)


def test_batch_consults_verify_cache():
    pk, msg, sig = _POOL[0]
    assert e.verify(pk, msg, sig)
    before = e.verify_cache_stats()
    assert e.verify_batch([(pk, msg, sig)]) == [True]
    after = e.verify_cache_stats()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_point_cache_bounded_fifo(monkeypatch):
    monkeypatch.setattr(e, "POINT_CACHE_MAX", 4)
    for i in range(6):
        pk, msg, sig = _signed(100 + i, msg=b"x")
        assert e.verify(pk, msg, sig)
    stats = e.point_cache_stats()
    assert stats["size"] <= 4
    assert stats["evictions"] == 2
    assert stats["misses"] == 6


def test_point_cache_hits_on_repeat_signer():
    pk, _, _ = _POOL[0]
    for i in range(3):
        msg = f"repeat-{i}".encode()
        sig = e.sign(bytes([0]) * 32, msg)
        assert e.verify(pk, msg, sig)
    stats = e.point_cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 2


def test_key_gets_split_tables_at_second_lookup():
    pk = _POOL[0][0]
    for i, tables in enumerate((1, e._SPLIT_PIECES, e._SPLIT_PIECES)):
        msg = f"lookup-{i}".encode()
        assert e.verify(pk, msg, e.sign(bytes([0]) * 32, msg))
        assert len(e._POINT_CACHE[pk]) == tables


def test_unseen_then_seen_keys_equal_verify_item_by_item():
    items = _pool_with_one_forged()
    assert _run_batch(items) == _oracle(items)     # every key's first lookup
    assert all(len(e._POINT_CACHE[pk]) == 1 for pk, _, _ in items)
    assert _run_batch(items) == _oracle(items)     # every key seen
    assert all(len(e._POINT_CACHE[pk]) == e._SPLIT_PIECES for pk, _, _ in items)
    assert e.point_cache_stats()["misses"] == e.point_cache_stats()["hits"] == len(items)


def test_point_cache_counts_one_lookup_per_uncached_signature():
    """Hit or miss, decodable key or not: the hit ratio the benchmark
    reports divides by every uncached signature."""
    pk, msg, sig = _POOL[0]
    assert not e.verify(b"\xff" * 32, msg, sig)          # not a point: a miss
    assert e.verify_batch([(pk, msg, sig), (pk, msg + b"!", sig)]) == [True, False]
    high_s = sig[:32] + int.to_bytes(e._L, 32, "little")
    assert not e.verify(pk, msg, high_s)
    assert e.verify(pk, msg, sig)                         # verdict cached: no lookup
    stats = e.point_cache_stats()
    assert (stats["misses"], stats["hits"], stats["size"]) == (2, 2, 1)


def test_point_cache_clear_drops_the_key_tables():
    pk, msg, sig = _POOL[0]
    assert e.verify(pk, msg, sig)
    assert e.point_cache_stats()["size"] == 1
    e.point_cache_clear()
    assert e.point_cache_stats() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
    assert e._POINT_CACHE == {}
    e.verify_cache_clear()
    assert e.verify(pk, msg, sig)
    assert e.point_cache_stats()["misses"] == 1


def test_wnaf_single_verify_matches_reference_vectors():
    """RFC 8032 vectors through the split wNAF ladder (uncached)."""
    vectors = [
        ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60", ""),
        ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb", "72"),
        ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7", "af82"),
    ]
    for seed_hex, msg_hex in vectors:
        seed, msg = bytes.fromhex(seed_hex), bytes.fromhex(msg_hex)
        pk = e.generate_public_key(seed)
        sig = e.sign(seed, msg)
        assert e._verify_uncached(pk, msg, sig)
        assert not e._verify_uncached(pk, msg + b"x", sig)


@settings(max_examples=15, deadline=None)
@given(
    picks=st.lists(st.integers(min_value=0, max_value=len(_POOL) - 1),
                   min_size=1, max_size=6),
    corrupt=st.lists(st.sampled_from(["ok", "flip_sig", "flip_msg", "wrong_key", "zero_sig"]),
                     min_size=1, max_size=6),
)
def test_property_agreement_with_reference(picks, corrupt):
    """verify_batch == map(verify) on arbitrary mixed batches."""
    items = []
    for idx, mode in zip(picks, corrupt):
        pk, msg, sig = _POOL[idx]
        if mode == "flip_sig":
            mutated = bytearray(sig)
            mutated[10] ^= 1
            sig = bytes(mutated)
        elif mode == "flip_msg":
            msg = msg + b"?"
        elif mode == "wrong_key":
            pk = _POOL[(idx + 1) % len(_POOL)][0]
        elif mode == "zero_sig":
            sig = bytes(64)
        items.append((pk, msg, sig))
    assert _run_batch(items) == _oracle(items)
