"""Transaction signing, ids, endorsements."""

import dataclasses
import random

import pytest

from repro.chain.transaction import Endorsement, Transaction, endorsed_digest
from repro.crypto import KeyPair
from repro.errors import InvalidTransactionError


@pytest.fixture
def keypair():
    return KeyPair.generate(random.Random(0))


@pytest.fixture
def tx(keypair):
    return Transaction.create(keypair, "counter", "increment", {"amount": 2}, nonce=1, timestamp=5.0)


def test_create_signs_and_ids(tx):
    assert tx.verify_signature()
    assert len(tx.tx_id) == 64


def test_same_proposal_same_id(keypair):
    a = Transaction.create(keypair, "c", "m", {"x": 1}, nonce=1, timestamp=1.0)
    b = Transaction.create(keypair, "c", "m", {"x": 1}, nonce=1, timestamp=1.0)
    assert a.tx_id == b.tx_id


def test_nonce_changes_id(keypair):
    a = Transaction.create(keypair, "c", "m", {}, nonce=1)
    b = Transaction.create(keypair, "c", "m", {}, nonce=2)
    assert a.tx_id != b.tx_id


def test_tampered_args_fail_verification(tx):
    tampered = dataclasses.replace(tx, args={"amount": 9999})
    assert not tampered.verify_signature()


def test_wrong_sender_fails_verification(tx):
    other = KeyPair.generate(random.Random(1))
    tampered = dataclasses.replace(tx, sender=other.address)
    assert not tampered.verify_signature()


def test_swapped_public_key_fails(tx):
    other = KeyPair.generate(random.Random(2))
    tampered = dataclasses.replace(tx, public_key_hex=other.public_key.hex())
    assert not tampered.verify_signature()


def test_validate_structure_raises_on_missing_contract(keypair):
    tx = Transaction.create(keypair, "", "m", {})
    with pytest.raises(InvalidTransactionError):
        tx.validate_structure()


def test_validate_structure_raises_on_bad_signature(tx):
    tampered = dataclasses.replace(tx, signature_hex="00" * 64)
    with pytest.raises(InvalidTransactionError):
        tampered.validate_structure()


def test_with_execution_attaches_rwsets(tx, keypair):
    digest = endorsed_digest({"k": 1}, {"k": "v"}, ({"kind": "e"},), 42)
    endorsement = Endorsement.create(keypair, "peer-0", tx.tx_id, digest)
    endorsed = tx.with_execution(
        read_set={"k": 1},
        write_set={"k": "v"},
        events=({"kind": "e"},),
        return_value=42,
        endorsements=(endorsement,),
    )
    assert endorsed.read_set == {"k": 1}
    assert endorsed.write_set == {"k": "v"}
    assert endorsed.return_value == 42
    assert endorsed.tx_id == tx.tx_id  # id covers the proposal only
    assert endorsed.endorsed_digest == digest


def test_endorsement_verify(tx, keypair):
    digest = endorsed_digest({}, {"a": 1}, (), None)
    endorsement = Endorsement.create(keypair, "peer-0", tx.tx_id, digest)
    assert endorsement.verify(tx.tx_id, keypair.public_key)
    assert not endorsement.verify("deadbeef" * 8, keypair.public_key)
    # The signature is the key's own: under another key it does not verify.
    other = KeyPair.generate(random.Random(99))
    assert not endorsement.verify(tx.tx_id, other.public_key)


def test_endorsement_bad_signature_rejected(tx, keypair):
    digest = endorsed_digest({}, {}, (), None)
    endorsement = Endorsement.create(keypair, "peer-0", tx.tx_id, digest)
    forged = dataclasses.replace(endorsement, signature_hex="11" * 64)
    assert not forged.verify(tx.tx_id, keypair.public_key)
    assert not dataclasses.replace(endorsement, signature_hex="not hex").verify(
        tx.tx_id, keypair.public_key)


def test_rwset_digest_sensitive_to_content():
    assert endorsed_digest({"a": 1}, {}, (), None) != endorsed_digest({"a": 2}, {}, (), None)
    assert endorsed_digest({}, {"k": "x"}, (), None) != endorsed_digest({}, {"k": "y"}, (), None)
    # Events and the return value are signed too.
    assert endorsed_digest({}, {}, ({"amount": 1},), None) != endorsed_digest(
        {}, {}, ({"amount": 1000},), None)
    assert endorsed_digest({}, {}, (), 1) != endorsed_digest({}, {}, (), 1000)
