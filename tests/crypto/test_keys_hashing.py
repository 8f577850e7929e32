"""KeyPair, addresses, and canonical hashing."""

import json
import random
from datetime import date
from decimal import Decimal

import pytest

from repro.crypto import KeyPair, address_from_public_key, hash_json, sha256_hex, verify_signature
from repro.crypto.hashing import canonical_json, short_id
from repro.errors import CryptoError


def test_keypair_deterministic_from_rng():
    a = KeyPair.generate(random.Random(5))
    b = KeyPair.generate(random.Random(5))
    assert a.seed == b.seed and a.address == b.address


def test_keypair_sign_verify():
    keypair = KeyPair.generate(random.Random(1))
    signature = keypair.sign(b"payload")
    assert keypair.verify(b"payload", signature)
    assert not keypair.verify(b"other", signature)
    assert verify_signature(keypair.public_key, b"payload", signature)


def test_address_derivation_is_stable():
    keypair = KeyPair.generate(random.Random(2))
    assert keypair.address == address_from_public_key(keypair.public_key)
    assert keypair.address.startswith("acct:")
    assert len(keypair.address) == len("acct:") + 40


def test_distinct_keys_distinct_addresses():
    rng = random.Random(3)
    addresses = {KeyPair.generate(rng).address for _ in range(50)}
    assert len(addresses) == 50


def test_from_seed_rejects_bad_length():
    with pytest.raises(CryptoError):
        KeyPair.from_seed(b"too-short")


def test_hash_json_order_independent():
    assert hash_json({"a": 1, "b": [2, 3]}) == hash_json({"b": [2, 3], "a": 1})


def test_hash_json_value_sensitive():
    assert hash_json({"a": 1}) != hash_json({"a": 2})


@pytest.mark.parametrize("value", [
    {"b": {"z": [1, {"y": None, "x": True}], "a": []}, "a": 0},
    {"titre": "Élection à Zürich — 東京", "emoji": "\U0001f4f0"},
    [0.1, -2.5e-300, 1e16, 3.0, float("inf"), float("nan")],
    {"amount": Decimal("1.10"), "when": date(2019, 7, 7), "tags": ("t", 2)},
    "a plain string",
])
def test_canonical_json_is_json_dumps_with_the_canonical_arguments(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    assert canonical_json(value) == expected.encode("utf-8")


def test_sha256_hex_known_vector():
    assert sha256_hex(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_short_id():
    digest = sha256_hex(b"x")
    assert short_id(digest) == digest[:12]
    assert short_id(digest, 4) == digest[:4]


def test_generate_requires_explicit_rng():
    """Regression (DET002): generate() used to fall back to
    random.SystemRandom() when called with no rng, so one forgotten
    argument silently produced OS-entropy keys and broke bit-identical
    reruns.  The rng is now mandatory."""
    with pytest.raises((TypeError, CryptoError)):
        KeyPair.generate()  # type: ignore[call-arg]
    with pytest.raises(CryptoError):
        KeyPair.generate(None)  # type: ignore[arg-type]


def test_generate_deterministic_and_optable_out():
    assert (KeyPair.generate(random.Random(5)).address
            == KeyPair.generate(random.Random(5)).address)
    # Real-world callers can still opt into OS entropy, but only by
    # writing it down explicitly at the call site.
    entropic = KeyPair.generate(random.SystemRandom())  # repro: noqa[DET002] the opt-out under test
    assert entropic.address.startswith("acct:")
