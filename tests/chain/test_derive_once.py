"""An immutable chain object derives its bytes once — and only its own.

``Transaction`` remembers its signing payload (``signature_item``), its
``endorsed_digest`` and its wire size; ``Block`` its wire size; the store
codec the canonical bytes of the blocks it encoded last.  Each memo sits
in front of the one existing implementation (``_proposal_payload``,
``endorsed_digest``, ``estimate_payload_size``, ``encode_obj``), so these
tests check two things: the derivation really happens once (a counting
monkeypatch in the style of ``test_block_merkle_cache.py``; 17 runs per
transaction before the memo), and nothing observable changed — a
tampered copy is judged on its own fields with the verdict and error
string it always got, sizes equal the plain walk's with and without the
visit cap biting, record bytes equal ``encode_obj`` of the whole dict.

What the memos rely on: a transaction's ``args`` / ``read_set`` /
``write_set`` dicts are never written to once the transaction exists.
They are frozen by contract, not by type; no code under ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` mutates them in place
(grepped for item assignment, ``del`` and the mutating dict methods on
those three attributes when the memos were added).  Every other way to
get a different transaction — ``dataclasses.replace``, the codec, the
constructor — builds a new object that remembers nothing.
"""

import random
import zlib
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chain.peer as peer_module
import repro.chain.transaction as transaction_module
from repro.chain import BlockchainNetwork
from repro.chain.block import Block
from repro.chain.commit import commit_block
from repro.chain.contracts.endorsement import EndorsementPolicy, check_endorsements
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.store.codec import (
    block_to_obj, decode_record, deflate, encode_obj, encode_record, inflate)
from repro.chain.transaction import Endorsement, Transaction, endorsed_digest
from repro.crypto import KeyPair
from repro.errors import EndorsementError
from repro.simnet import UniformLatency, estimate_payload_size
from repro.simnet.network import _SIZE_VISIT_CAP, WireSized
from tests.conftest import CounterContract

CLIENT, ENDORSER = (KeyPair.generate(random.Random(seed)) for seed in (1, 2))
POLICY = EndorsementPolicy(required=1)
DIRECTORY = {"peer-0": ENDORSER.public_key}


def _endorsed(nonce, args=None, read_set=None, write_set=None, events=()):
    read_set = {} if read_set is None else read_set
    write_set = {"count": nonce} if write_set is None else write_set
    tx = Transaction.create(CLIENT, "counter", "increment", args or {"amount": nonce}, nonce=nonce)
    digest = endorsed_digest(read_set, write_set, events, True)
    endorsement = Endorsement.create(ENDORSER, "peer-0", tx.tx_id, digest)
    return tx.with_execution(read_set, write_set, events, True, (endorsement,), digest=digest)


def _fresh(tx):
    """An equal transaction that remembers nothing (as off the wire)."""
    return Transaction(**{f.name: getattr(tx, f.name) for f in fields(tx)})


def _warm(tx):
    tx.signature_item()
    tx.wire_size()
    assert tx.endorsed_digest
    return tx


def _verdicts(txs):
    """(valid, error) per transaction, from the commit path on a fresh chain."""
    ledger = Ledger()
    block = Block.build(1, ledger.head.block_hash, 1.0, "peer-0", txs)
    result = commit_block(
        block, lambda contract: POLICY, ledger=ledger, state=WorldState(), directory=DIRECTORY)
    return [(verdict.valid, verdict.error) for verdict in result.verdicts]


# -- derived once -------------------------------------------------------------


def _count_calls(monkeypatch, name, *modules):
    """Rebind *name* in *modules* to a wrapper that counts its calls."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_payload_and_rwset_are_derived_once_from_create_to_commit_on_four_peers(monkeypatch):
    built = _count_calls(monkeypatch, "_proposal_payload", transaction_module)
    hashed = _count_calls(monkeypatch, "endorsed_digest", transaction_module, peer_module)
    net = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.2,
                            latency=UniformLatency(0.01, 0.03), seed=3)
    net.install_contract(CounterContract)
    client = net.client()
    tx = net.endorse_transaction(client, "counter", "increment", {"amount": 2})
    net.submit(tx)
    net.run_for(5.0)
    net.stop()
    # Validated at admission and again at commit, on every peer.
    assert all(peer.ledger.receipt(tx.tx_id).success for peer in net.peers)
    assert sum(built) == 1   # by Transaction.create; 17 before the memo
    assert sum(hashed) == 1  # by the endorsing peer; 6 before


def test_rwset_is_hashed_once_per_endorsed_transaction(monkeypatch):
    tx = _endorsed(1)
    hashed = _count_calls(monkeypatch, "endorsed_digest", transaction_module)
    check_endorsements(tx, POLICY, DIRECTORY)
    check_endorsements(tx, POLICY, DIRECTORY)
    assert sum(hashed) == 0  # with_execution was handed the endorser's digest
    cold = _fresh(tx)
    check_endorsements(cold, POLICY, DIRECTORY)
    check_endorsements(cold, POLICY, DIRECTORY)
    assert sum(hashed) == 1


# -- a tampered copy never inherits a memo -------------------------------------


def test_tampered_copies_are_judged_on_their_own_fields():
    tx, other = _warm(_endorsed(1)), _warm(_endorsed(2, write_set={"count": 1}))
    assert tx.verify_signature() and _verdicts([tx]) == [(True, None)]
    tampered = [
        replace(tx, args={"amount": 1_000_000}),
        replace(tx, write_set={"count": 1_000_000}),
        replace(tx, signature_hex=other.signature_hex),
        replace(tx, public_key_hex="not hex"),
        # An endorsement of the same execution, signed for another transaction.
        replace(tx, endorsements=other.endorsements),
    ]
    for copy in tampered:
        assert not {"_signature_item", "_endorsed_digest", "_merkle_leaf", "_wire_size"} & set(
            vars(copy))
    short = tx.tx_id[:12]
    assert _verdicts(tampered) == [
        (False, f"bad signature on tx {short}"),
        (False, f"tx {short}: endorser peer-0 signed a different execution "
                "(non-deterministic or edited after endorsement?)"),
        (False, f"bad signature on tx {short}"),
        (False, f"bad signature on tx {short}"),
        (False, f"tx {short}: bad endorsement signature from peer-0"),
    ]
    # The original is untouched by its copies' verdicts.
    assert _verdicts([tx]) == [(True, None)]


def test_decoded_record_rederives_everything():
    txs = [_warm(_endorsed(nonce)) for nonce in (1, 2)]
    block = Block.build(1, Ledger().head.block_hash, 1.0, "peer-0", txs)
    decoded, _, _, _ = decode_record(encode_record(block, [True, True]))
    for original, copy in zip(txs, decoded.transactions):
        assert copy == original and not any(name.startswith("_") for name in vars(copy))
        assert copy.signature_item() == original.signature_item()
        assert copy.endorsed_digest == original.endorsed_digest
    assert _verdicts(list(decoded.transactions)) == [(True, None), (True, None)]
    # Bytes changed on disk decode to a transaction that fails on its own fields.
    obj = block_to_obj(block)
    obj["transactions"][0]["args"] = {"amount": 1_000_000}
    forged, _, _, _ = decode_record(deflate(
        encode_obj({"block": obj, "validity": [True, True], "errors": [None, None], "proof": None})))
    assert _verdicts(list(forged.transactions)) == [
        (False, f"bad signature on tx {txs[0].tx_id[:12]}"), (True, None)]


_TAMPER = st.sampled_from(["none", "args", "write_set", "signature", "public_key", "digest"])
_args = st.dictionaries(st.text(max_size=6), st.one_of(st.integers(), st.text(max_size=12)),
                        max_size=4)
_sets = st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 9), max_size=3)


@given(_args, _sets, _sets, _TAMPER)
@settings(max_examples=60, deadline=None)
def test_warm_and_fresh_equal_objects_agree(args, read_set, write_set, tamper):
    tx = _endorsed(7, args={**args, "amount": 1}, read_set=read_set, write_set=write_set)
    if tamper == "args":
        tx = replace(tx, args={**tx.args, "amount": 2})
    elif tamper == "write_set":
        tx = replace(tx, write_set={**write_set, "z": 1})
    elif tamper == "signature":
        tx = replace(tx, signature_hex=tx.signature_hex[2:] + "00")
    elif tamper == "public_key":
        tx = replace(tx, public_key_hex="zz" + tx.public_key_hex[2:])
    elif tamper == "digest":
        tx = replace(tx, endorsements=(replace(tx.endorsements[0], digest="0" * 64),))

    def outcomes(candidate):
        try:
            check_endorsements(candidate, POLICY, DIRECTORY)
            endorsed = None
        except EndorsementError as exc:
            endorsed = str(exc)
        return (candidate.signature_item(), candidate.endorsed_digest,
                candidate.verify_signature(), endorsed, estimate_payload_size(candidate))

    first = outcomes(tx)
    assert outcomes(tx) == first           # warm: answered from what it remembers
    assert outcomes(_fresh(tx)) == first   # an equal object deriving from scratch
    assert first[2] == (tamper in ("none", "write_set", "digest"))


# -- wire size: the memo gives the plain walk's number --------------------------


@pytest.fixture
def plain_size(monkeypatch):
    """``estimate_payload_size`` with no object answering for itself: the
    walk visits every node, as it did before the memo existed."""

    def size(payload):
        with monkeypatch.context() as patch:
            patch.delattr(WireSized, "wire_size")
            return estimate_payload_size(payload)

    return size


def _bulky(nonce):
    """An endorsed transaction of a hundred and one nodes."""
    return _endorsed(
        nonce, args={f"field{i}": "x" * i for i in range(14)},
        read_set={f"r{i}": i for i in range(8)}, write_set={f"w{i}": [i, None] for i in range(8)},
        events=({"kind": "shared", "n": [nonce]},))


@pytest.fixture(scope="module")
def bulky_txs():
    return [_bulky(nonce) for nonce in range(600)]


def test_cold_warm_and_plain_sizes_agree(plain_size, bulky_txs):
    proposal = Transaction.create(CLIENT, "counter", "read", {}, nonce=1)
    block = Block.build(1, "aa" * 32, 1.0, "peer-0", bulky_txs[:10])
    vote = {"view": 0, "height": 1, "digest": block.block_hash, "signature": b"\x01" * 64}
    payloads = [
        proposal,
        bulky_txs[0],
        block,
        {"view": 0, "height": 1, "block": block},
        vote,
        {"block": block, "certificate": ["peer-0", "peer-1", "peer-2"],
         "signatures": {"peer-0": b"\x02" * 64}},
    ]
    for payload in payloads:
        expected = plain_size(payload)
        assert estimate_payload_size(payload) == expected   # cold (or partly warm)
        assert estimate_payload_size(payload) == expected   # warm
    assert "_wire_size" in vars(block) and "_wire_size" in vars(proposal)


@pytest.mark.parametrize("n_txs", [10, 200, 600])
def test_block_size_matches_the_plain_walk_under_near_and_over_the_cap(
        plain_size, bulky_txs, n_txs):
    txs = bulky_txs[:n_txs]
    per_tx = txs[0].wire_size()[1]
    assert 10 * per_tx < _SIZE_VISIT_CAP / 2 and 600 * per_tx > 2 * _SIZE_VISIT_CAP
    assert _SIZE_VISIT_CAP < 200 * per_tx < 1.02 * _SIZE_VISIT_CAP  # the last two don't fit
    for warm_txs in (False, True):
        block = Block.build(1, "aa" * 32, 1.0, "peer-0", [_fresh(tx) for tx in txs])
        if warm_txs:  # gossiped before they were ordered
            for tx in block.transactions:
                tx.wire_size()
        expected = plain_size({"view": 0, "height": 1, "block": block})
        assert estimate_payload_size({"view": 0, "height": 1, "block": block}) == expected
        assert estimate_payload_size({"view": 0, "height": 1, "block": block}) == expected
    assert (block.wire_size()[1] == _SIZE_VISIT_CAP) == (n_txs >= 200)  # truncated by the cap


def test_sync_batch_truncated_by_the_cap_keeps_its_number(plain_size, bulky_txs):
    # Blocks served from a ledger were all sized when they were decided;
    # wherever in the batch the cap falls — between blocks, inside one,
    # inside a transaction — the batch gets the plain walk's number.
    blocks = [Block.build(h, "aa" * 32, float(h), "peer-0", bulky_txs[h * 20:(h + 1) * 20])
              for h in range(12)]
    for block in blocks:
        estimate_payload_size({"block": block, "certificate": [], "signatures": {}})
    for n_blocks in range(8, 13):
        for pad in range(0, 120, 7):
            # Walked last pair first: the padding shifts where the cap falls.
            batch = {"req_id": 1, "height": 12, "blocks": [
                {"block": block, "proof": {"signers": ["peer-0"], "signatures": {}}}
                for block in blocks[:n_blocks]], "padding": [None] * pad}
            assert estimate_payload_size(batch) == plain_size(batch)
    assert plain_size(blocks) < sum(plain_size(block) for block in blocks)  # the cap bit


# -- WAL record: spliced bytes are the whole dict's bytes ----------------------


def _pbft_proof():
    """A peer that fetched block 1 after a crash, and the statement set
    that certified it — the one kind of proof a WAL record carries."""
    net = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.2,
                            latency=UniformLatency(0.01, 0.03), seed=5, storage="durable")
    net.install_contract(CounterContract)
    peer = net.peers[3]
    peer.crashed = True
    net.client().invoke("counter", "increment", {"amount": 1})
    net.run_for(1.0)
    peer.crashed = False
    net.run_for(3.0)
    net.stop()
    proof = peer.engine.sync_proof(1)
    assert len(proof["signers"]) >= 3 and set(proof["signatures"]) == set(proof["signers"])
    assert net.peers[0].engine.sync_proof(1) is None  # decided there: nothing stored
    return peer, proof


def test_encode_record_is_encode_obj_of_the_whole_record():
    peer, proof = _pbft_proof()
    committed = peer.ledger.block(1)
    mixed = Block.build(
        2, committed.block_hash, 2.0, "peer-1",
        [_endorsed(1), replace(_endorsed(2), args={"amount": -1}), _endorsed(3, read_set={"count": 9})])
    cases = [
        (committed, [True], None, proof),
        (committed, [True], [None], None),
        (mixed, [True, False, False],
         [None, "bad signature on tx \"quoted\" ☃", "MVCC conflict: stale read set"], proof),
        (mixed, (True, False, False), None, None),
        (Block.build(3, mixed.block_hash, 3.0, "peer-2", []), [], [], None),
    ]
    for block, validity, errors, block_proof in cases:
        whole = encode_obj({
            "block": block_to_obj(block),
            "validity": list(validity),
            "errors": list(errors) if errors is not None else [None] * len(validity),
            "proof": block_proof,
        })
        stored = encode_record(block, validity, errors, block_proof)  # block encoded here
        assert inflate(stored) == whole and stored == deflate(whole)
        assert encode_record(block, validity, errors, block_proof) == stored  # block bytes reused
        decoded = decode_record(stored)
        assert decoded[0] == block and decoded[1] == list(validity)
    # What the store acknowledged for the real chain is the CRC of exactly these bytes.
    assert peer.store.acked[1] == (
        committed.block_hash, zlib.crc32(encode_record(committed, [True], [None], proof)))


def test_block_bytes_memo_stays_small():
    import repro.chain.store.codec as codec

    blocks = [Block.build(h, "aa" * 32, float(h), "peer-0", [_endorsed(h)]) for h in range(1, 21)]
    first = [encode_record(block, [True]) for block in blocks]
    assert len(codec._block_bytes) <= codec._BLOCK_BYTES_KEPT < len(blocks)
    assert [encode_record(block, [True]) for block in blocks] == first  # evicted ones re-encode
