"""The table-driven sign / verify paths against code that shares nothing
with them.

``sign`` is one fixed-base table product plus what it remembers of the
seed; ``verify`` never decompresses ``R`` and compares encodings instead
of points.  What could go wrong is therefore (a) a signature byte
changing, (b) a mismatched public key reaching the hash, (c) a
non-canonical or small-order ``R`` / ``A`` getting a different verdict
than comparing points gave it.  The oracles are the RFC 8032 procedure written with
``_point_mul`` (naive double-and-add), ``_verify_reference``, and a
digest of the parent commit's output.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import KeyPair, address_from_public_key
from repro.crypto import ed25519 as e
from repro.errors import CryptoError


@pytest.fixture(autouse=True)
def clean_caches():
    e.verify_cache_clear()
    e.point_cache_clear()
    yield
    e.verify_cache_clear()
    e.point_cache_clear()


# -- sign ----------------------------------------------------------------------


def _textbook_sign(seed: bytes, message: bytes) -> tuple[bytes, bytes]:
    """RFC 8032 §5.1.5 / §5.1.6 with naive scalar multiplication."""
    digest = hashlib.sha512(seed).digest()
    a = int.from_bytes(digest[:32], "little") & ((1 << 254) - 8) | (1 << 254)
    prefix = digest[32:]
    public = e._point_compress(e._point_mul(a, e._G))
    r = int.from_bytes(e._sha512(prefix + message), "little") % e._L
    r_bytes = e._point_compress(e._point_mul(r, e._G))
    h = int.from_bytes(e._sha512(r_bytes + public + message), "little") % e._L
    return public, r_bytes + int.to_bytes((r + h * a) % e._L, 32, "little")


def test_sign_matches_textbook_and_parent_bytes_for_200_seeds():
    rng = random.Random(8032)
    digest = hashlib.sha256()
    for _ in range(200):
        seed = rng.getrandbits(256).to_bytes(32, "little")
        message = rng.randbytes(rng.randrange(0, 200))
        public = e.generate_public_key(seed)
        signature = e.sign(seed, message)
        assert (public, signature) == _textbook_sign(seed, message)
        digest.update(public)
        digest.update(signature)
    # The same loop run on the commit before the tables changed (c848441).
    assert digest.hexdigest() == (
        "c74e5146fb5fb0ce6cc6c193c6c212f14bc26376535d88a33a7b6bddbc2f93db")


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.integers(min_value=0, max_value=2**255 - 1),
    st.sampled_from([0, 1, 127, 128, 129, 255, 256, 2**255 - 1, e._L - 1,
                     int.from_bytes(b"\xff" * 31 + b"\x7f", "little"),
                     int.from_bytes(b"\x80" * 31 + b"\x7f", "little"),
                     int.from_bytes(b"\x81" * 31 + b"\x7f", "little")]),
))
def test_fixed_base_table_product(scalar):
    """Signed byte digits, carries included, against double-and-add."""
    assert e._ladder([e._base_points(scalar)]) == e._point_compress(
        e._point_mul(scalar, e._G))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_wnaf_schedule_evaluates_to_the_product(scalar):
    q = e._point_mul(7, e._G)
    table = tuple(e._to_niels([e._point_mul(m, q) for m in range(1, 16, 2)]))
    schedule = [[] for _ in range(33)]
    e._wnaf_into(schedule, scalar, table)
    assert e._ladder(schedule) == e._point_compress(e._point_mul(scalar, q))
    assert sum(map(len, schedule)) <= 32 // (e._WNAF_W + 1) + 2


# -- the public key sign() hashes ------------------------------------------------


def test_every_keypair_constructor_signs_like_ed25519_sign_or_raises():
    message = b"supply-chain record"
    generated = KeyPair.generate(random.Random(3))
    derived = KeyPair.from_seed(generated.seed)
    direct = KeyPair(seed=generated.seed, public_key=generated.public_key,
                     address=generated.address)
    expected = e.sign(generated.seed, message)
    assert expected == _textbook_sign(generated.seed, message)[1]
    for keypair in (generated, derived, direct):
        assert keypair.sign(message) == expected

    foreign = KeyPair.generate(random.Random(4)).public_key
    for public_key in (foreign, generated.public_key[:31], b""):
        with pytest.raises(CryptoError):
            KeyPair(seed=generated.seed, public_key=public_key,
                    address=address_from_public_key(public_key))
    with pytest.raises(CryptoError):
        KeyPair(seed=b"short", public_key=generated.public_key, address=generated.address)


# -- verify: encodings the compare-compressed check could get wrong ------------


def _signed(i: int) -> tuple[bytes, bytes, bytes]:
    seed = bytes([i, 0xA5]) * 16
    public = e.generate_public_key(seed)
    message = f"article-{i}".encode()
    return public, message, e.sign(seed, message)


_POOL = [_signed(i) for i in range(6)]


def _small_order_points() -> list[e._Point]:
    """All eight points of order dividing 8, from a generator found by
    clearing the prime-order component of an arbitrary point."""
    rng = random.Random(5)
    while True:
        try:
            point = e._point_decompress(int.to_bytes(rng.getrandbits(255), 32, "little"))
        except CryptoError:
            continue
        generator = e._point_mul(e._L, point)
        if not e._point_equal(e._point_mul(4, generator), e._IDENTITY):
            return [e._point_mul(k, generator) for k in range(8)]


_TORSION = _small_order_points()
_TORSION_BYTES = [e._point_compress(point) for point in _TORSION]


def _with_y_plus_p(encoding: bytes) -> bytes | None:
    """The non-canonical twin of *encoding* (y + p still fits 255 bits)."""
    value = int.from_bytes(encoding, "little")
    y, sign = value & ((1 << 255) - 1), value >> 255
    if y + e._P >= 1 << 255:
        return None
    return int.to_bytes((y + e._P) | (sign << 255), 32, "little")


_NON_CANONICAL = [twin for twin in map(_with_y_plus_p, _TORSION_BYTES) if twin]
#: x = 0 (y = 1 and y = -1) with the sign bit set: decompression refuses it.
_SIGNED_ZERO_X = [int.to_bytes(y | (1 << 255), 32, "little") for y in (1, e._P - 1)]


def test_the_adversarial_encodings_are_what_they_claim():
    assert len(set(_TORSION_BYTES)) == 8
    assert len(_NON_CANONICAL) >= 2          # y = 0 and y = 1 have twins below 2**255
    for encoding in _NON_CANONICAL + _SIGNED_ZERO_X:
        with pytest.raises(CryptoError):
            e._point_decompress(encoding)


def _mutate(item, mode: str, pick: int):
    public, message, signature = item
    r_bytes, s_bytes = signature[:32], signature[32:]
    if mode == "ok":
        return item
    if mode == "flip_r":
        return public, message, bytes([r_bytes[0] ^ (1 << pick % 8)]) + signature[1:]
    if mode == "flip_s":
        return public, message, r_bytes + bytes([s_bytes[0] ^ (1 << pick % 8)]) + s_bytes[1:]
    if mode == "wrong_message":
        return public, message + b"?", signature
    if mode == "wrong_key":
        return _POOL[pick % len(_POOL)][0], message, signature
    if mode == "s_plus_l":
        s = int.from_bytes(s_bytes, "little") + e._L
        return public, message, r_bytes + int.to_bytes(s, 32, "little")
    if mode == "r_small_order":
        return public, message, _TORSION_BYTES[pick % 8] + s_bytes
    if mode == "a_small_order":
        return _TORSION_BYTES[pick % 8], message, signature
    if mode == "both_small_order_zero_s":
        # s = 0, A and R small-order: accepted whenever R + h*A is the identity.
        return _TORSION_BYTES[pick % 8], message, _TORSION_BYTES[(pick // 8) % 8] + bytes(32)
    if mode == "r_torsion_shifted":
        shifted = e._point_add(e._point_decompress(r_bytes), _TORSION[1 + pick % 7])
        return public, message, e._point_compress(shifted) + s_bytes
    if mode == "a_mixed_order":
        mixed = e._point_add(e._point_decompress(public), _TORSION[1 + pick % 7])
        return e._point_compress(mixed), message, signature
    if mode == "r_y_above_p":
        return public, message, _NON_CANONICAL[pick % len(_NON_CANONICAL)] + s_bytes
    if mode == "a_y_above_p":
        return _NON_CANONICAL[pick % len(_NON_CANONICAL)], message, signature
    if mode == "r_signed_zero_x":
        return public, message, _SIGNED_ZERO_X[pick % 2] + s_bytes
    if mode == "r_not_on_curve":
        return public, message, int.to_bytes(2 + pick, 32, "little") + s_bytes
    raise AssertionError(mode)


_MODES = ["ok", "flip_r", "flip_s", "wrong_message", "wrong_key", "s_plus_l",
          "r_small_order", "a_small_order", "both_small_order_zero_s",
          "r_torsion_shifted", "a_mixed_order", "r_y_above_p", "a_y_above_p",
          "r_signed_zero_x", "r_not_on_curve"]

_members = st.tuples(st.integers(0, len(_POOL) - 1), st.sampled_from(_MODES),
                     st.integers(0, 255))


@settings(max_examples=120, deadline=None)
@given(_members)
def test_verify_agrees_with_reference_on_adversarial_input(member):
    index, mode, pick = member
    item = _mutate(_POOL[index], mode, pick)
    expected = e._verify_reference(*item)
    assert e.verify(*item) is expected
    assert e.verify(*item) is expected          # and again from the verdict cache
    if mode == "ok":
        assert expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=12),
       st.sampled_from(_MODES), st.integers(0, 255), st.data())
def test_verify_batch_agrees_with_reference_with_one_forged_member(indices, mode, pick, data):
    """Batches of 1 to 12 signatures of keys never seen before, with one
    member replaced by an adversarial one."""
    e.verify_cache_clear()
    e.point_cache_clear()
    items = [_POOL[index] for index in indices]
    forged = data.draw(st.integers(0, len(items) - 1))
    items[forged] = _mutate(items[forged], mode, pick)
    expected = [e._verify_reference(*item) for item in items]
    assert e.verify_batch(items) == expected
    e.verify_cache_clear()
    assert [e.verify(*item) for item in items] == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(_members, min_size=1, max_size=12))
def test_verify_batch_of_seen_keys_agrees_with_reference_on_adversarial_batches(members):
    """Every member adversarial, first on keys that have been looked up
    before and then on cold caches: a batch is ``verify`` item by item,
    so torsion defects that would cancel in a combined check (two
    ``r_torsion_shifted`` by the point of order 2) cancel nowhere."""
    items = [_mutate(_POOL[index], mode, pick) for index, mode, pick in members]
    expected = [e._verify_reference(*item) for item in items]
    assert [e.verify(*item) for item in items] == expected
    e.verify_cache_clear()
    assert e.verify_batch(items) == expected
    e.verify_cache_clear()
    e.point_cache_clear()
    assert e.verify_batch(items) == expected


def test_every_small_order_pair_with_zero_s():
    """All 64 (A, R) small-order pairs: the one family of forgeries the
    cofactorless check accepts must be accepted for exactly the pairs
    the reference accepts."""
    message = b"news"
    items = [(a, message, r + bytes(32)) for a in _TORSION_BYTES for r in _TORSION_BYTES]
    expected = [e._verify_reference(*item) for item in items]
    assert any(expected) and not all(expected)
    assert [e.verify(*item) for item in items] == expected
