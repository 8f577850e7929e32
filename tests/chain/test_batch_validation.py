"""Where the chain layer checks signatures.

Each station checks a signature once, where its verdict is used:
admission and commit check every client signature and endorsement one
at a time, and ``verify_many`` — which returns exactly what
per-signature ``ed25519.verify`` returns — is called for one batch only,
the statements that certify a synced tip.  PBFT commit votes are channel-authenticated and carry
no signature; what a peer that was not there accepts for a block is
2f+1 validators' signed statements for its ``(height, hash)``, made on
request and batch-verified, and anything that would pass a bare name-set
check without them is rejected.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.chain import BlockchainNetwork, Contract, contract_method
from repro.chain.consensus.pbft import PBFTEngine
from repro.chain.consensus.pbft_core import Commit
from repro.chain.sync import statement_message
from repro.crypto import KeyPair, ed25519
from repro.crypto.batch import batch_meter, verify_many
from repro.obs import MetricsRegistry
from repro.chain.block import Block
from repro.simnet import FailureSchedule, FixedLatency, UniformLatency
from repro.simnet.network import Message
from tests.conftest import CounterContract, attach_to_peer, peer_count


@pytest.fixture(autouse=True)
def clean_crypto_state():
    ed25519.verify_cache_clear()
    ed25519.batch_stats_clear()
    yield
    ed25519.verify_cache_clear()
    ed25519.batch_stats_clear()


def _run_network(n_txs: int = 3, consensus: str = "pbft", seed: int = 21):
    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.5,
        latency=FixedLatency(0.02), seed=seed, view_timeout=5.0,
    )
    network.install_contract(CounterContract)
    client = network.client()
    receipts = []
    for _ in range(n_txs):
        receipts.append(client.invoke("counter", "increment", {"amount": 1}))
    network.run_for(3.0)
    network.stop()
    return network, receipts


def test_verify_meter_sees_only_certificate_batches():
    """``verify_many``'s one batch in the chain is a synced tip's
    certificate: a peer that fetches a tip meters one call over its
    statements, and a network that never syncs meters none, however many
    blocks it commits."""
    for consensus in ("poa", "pbft"):
        network, receipts = _run_network(n_txs=2, consensus=consensus)
        assert all(r.block_height is not None for r in receipts)
        assert network.obs.total("crypto.batch_calls") == 0
        assert network.obs.merged_histogram("phase.verify_batch").count == 0

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=UniformLatency(0.01, 0.05), seed=31, view_timeout=4.0,
    )
    network.install_contract(CounterContract)
    schedule = FailureSchedule(network.sim, network.net)
    victim = network.peers[3]
    schedule.crash_at(1.0, victim.node_id)
    client = network.client()
    for _ in range(10):
        network.submit(network.endorse_transaction(client, "counter", "increment", {"amount": 1}))
        network.run_for(0.8)
    network.run_for(5.0)
    schedule.restart_at(network.sim.now + 0.3, victim.node_id)
    network.run_for(6.0)
    network.stop()

    assert victim.ledger.height == network.peers[0].ledger.height >= 8
    (tip,) = victim.engine.synced_proofs
    statements = len(victim.engine.sync_proof(tip)["signatures"])
    assert statements >= victim.engine.quorum
    for peer in network.peers:
        synced = peer is victim
        assert peer_count(peer, "crypto.batch_calls") == (1 if synced else 0)
        assert peer_count(peer, "crypto.batch_items") == (statements if synced else 0)


def test_verify_many_modes_agree_and_label():
    """The batched schedule against the per-signature reference."""
    keypair = KeyPair.generate(random.Random(3))
    items = []
    for i in range(4):
        msg = f"m{i}".encode()
        items.append((keypair.public_key, msg, keypair.sign(msg)))
    items.append((keypair.public_key, b"forged", bytes(64)))
    registry = MetricsRegistry()
    batched = verify_many(items, batch_meter(registry, peer="p0"))
    ed25519.verify_cache_clear()
    assert batched == [ed25519.verify(*item) for item in items]
    assert batched == [True, True, True, True, False]
    (histogram,) = registry.histograms("phase.verify_batch")
    assert histogram.labels == {"peer": "p0"} and histogram.count == 1
    assert registry.total("crypto.batch_items") == len(items)


# -- PBFT certificates: statements signed on request ---------------------------

def _statements(network, height, signers=None, *, at=None, block_hash=None):
    """The proof a syncing peer would assemble for the block at *height*:
    each signer's own statement, made by its sync manager.  *at* /
    *block_hash* make the signers vouch for something else instead."""
    signatures = {}
    for peer in network.peers:
        if signers is not None and peer.node_id not in signers:
            continue
        vouched = block_hash or peer.engine.attested_hash(height)
        assert vouched is not None
        payload = peer.sync._statement(at if at is not None else height, vouched)
        signatures[peer.node_id] = payload["signature"].hex()
    return {"signers": sorted(signatures), "signatures": signatures}


def _voted(network, block, signers):
    """The statements of *signers* that they voted commit for *block* and
    have not applied it (the form a replica signs for a block it is
    locked on)."""
    signatures = {
        peer.node_id: peer.keypair.sign(
            statement_message(peer.node_id, block.height, block.block_hash, voted=True)).hex()
        for peer in network.peers if peer.node_id in signers
    }
    return {"signers": sorted(signatures), "signatures": signatures, "voted": sorted(signatures)}


def test_pbft_votes_are_unsigned_and_no_proof_is_stored_per_block():
    """A fault-free run signs one client signature and the endorsements
    per transaction, plus an announcement per new head — no vote
    signatures — and keeps the quorum's names, not a proof, per height."""
    network, receipts = _run_network()
    assert all(r.success for r in receipts)
    peer = max(network.peers, key=lambda p: p.ledger.height)
    engine = peer.engine
    assert peer.ledger.height > 0
    for height in range(1, peer.ledger.height + 1):
        digest, certificate = engine.commit_certificates[height]
        assert digest == peer.ledger.block(height).block_hash
        assert len(set(certificate) & set(engine.validators)) >= engine.quorum
        assert engine.sync_proof(height) is None
    assert not engine.synced_proofs
    assert network.obs.total("net.sent") > 0
    assert network.obs.total("sync.blocks_synced") == 0
    assert network.obs.total("sync.attest_requests_sent") == 0


def test_pbft_sync_proof_round_trip():
    """2f+1 validators' statements for a block — or f+1 from validators
    that applied it — are accepted by a peer that holds none of its own,
    for every height of the chain."""
    network, _ = _run_network()
    source = max(network.peers, key=lambda p: p.ledger.height)
    other = next(p for p in network.peers if p is not source)
    for height in range(1, source.ledger.height + 1):
        proof = _statements(network, height)
        assert len(proof["signatures"]) == 4
        block = source.ledger.block(height)
        assert other.engine.verify_synced_block(block, proof)
        for signer, sig_hex in proof["signatures"].items():
            assert ed25519.verify(
                other.directory[signer],
                statement_message(signer, height, block.block_hash),
                bytes.fromhex(sig_hex),
            )
        quorum_only = _statements(network, height, signers={"peer-0", "peer-2", "peer-3"})
        assert other.engine.verify_synced_block(block, quorum_only)
        # f+1 say they applied it: one of them is honest, so it is decided.
        assert other.engine.verify_synced_block(
            block, _statements(network, height, signers={"peer-2", "peer-3"}))
        # A vote is weaker than that: it takes 2f+1 statements if f+1 of
        # them are not "applied".
        assert other.engine.verify_synced_block(
            block, _voted(network, block, {"peer-0", "peer-2", "peer-3"}))
        mixed = _voted(network, block, {"peer-0", "peer-2"})
        mixed["signers"].append("peer-3")
        mixed["signatures"].update(_statements(network, height, signers={"peer-3"})["signatures"])
        assert other.engine.verify_synced_block(block, mixed)


def test_pbft_forged_certificate_rejected():
    """A name-set is worthless without valid statements once keys are
    registered, and statements do not transfer between blocks."""
    network, _ = _run_network()
    source = max(network.peers, key=lambda p: p.ledger.height)
    assert source.ledger.height >= 2
    verifier = next(p for p in network.peers if p is not source).engine
    block = source.ledger.block(1)
    validators = list(verifier.validators)
    # Bare name list (not a proof), and the same names with no signatures.
    assert not verifier.verify_synced_block(block, validators)
    assert not verifier.verify_synced_block(
        block, {"signers": validators, "signatures": {}}
    )
    # Dict proof with garbage signatures.
    forged = {
        "signers": validators,
        "signatures": {v: (b"\x00" * 64).hex() for v in validators},
    }
    assert not verifier.verify_synced_block(block, forged)
    # f "applied" statements are one short, whoever else is named beside
    # them; so are 2f statements of validators that only voted.
    one = _statements(network, 1, signers={"peer-0"})
    assert not verifier.verify_synced_block(block, one)
    assert not verifier.verify_synced_block(
        block, {"signers": validators, "signatures": one["signatures"]}
    )
    two_voted = _voted(network, block, {"peer-0", "peer-1"})
    assert not verifier.verify_synced_block(block, two_voted)
    # A "voted" signature does not pass for "applied", nor the reverse.
    assert not verifier.verify_synced_block(
        block, {"signers": two_voted["signers"], "signatures": two_voted["signatures"]})
    two = _statements(network, 1, signers={"peer-0", "peer-1"})
    assert not verifier.verify_synced_block(block, {**two, "voted": two["signers"]})
    assert not verifier.verify_synced_block(block, {**two, "voted": "peer-0"})
    # A non-validator's perfectly valid statement does not count.
    outsider = KeyPair.generate(random.Random(9))
    padded = {
        "signers": one["signers"] + ["observer-0"],
        "signatures": {
            **one["signatures"],
            "observer-0": outsider.sign(
                statement_message("observer-0", 1, block.block_hash)).hex(),
        },
    }
    assert not verifier.verify_synced_block(block, padded)
    # Valid statements for another height, or for another hash at this
    # height, don't transfer.
    real = _statements(network, 1)
    assert not verifier.verify_synced_block(source.ledger.block(2), real)
    assert not verifier.verify_synced_block(block, _statements(network, 2))
    assert not verifier.verify_synced_block(block, _statements(network, 1, at=2))
    assert not verifier.verify_synced_block(
        block, _statements(network, 1, block_hash=source.ledger.block(2).block_hash))
    # A statement signed by one validator under another's name.
    swapped = dict(real["signatures"])
    swapped["peer-0"], swapped["peer-1"] = swapped["peer-1"], swapped["peer-0"]
    assert not verifier.verify_synced_block(
        block, {"signers": ["peer-0", "peer-1", "peer-2"], "signatures": swapped})
    # The genuine proof still verifies.
    assert verifier.verify_synced_block(block, real)


def test_pbft_certificate_counts_only_validators_with_a_directory_key():
    """A synced tip's certificate is checked against the peer's directory:
    a validator with no key there counts for nothing, whatever it signed,
    so a name alone never certifies a tip."""
    keys = {v: KeyPair.generate(random.Random(v)) for v in ("v0", "v1", "v2", "v3")}
    engine = attach_to_peer(PBFTEngine(list(keys)), {"v0": keys["v0"].public_key})
    block = Block.build(1, "genesis", 0.0, "v0", [])

    def proof(*signers):
        return {"signers": list(signers), "signatures": {
            s: keys[s].sign(statement_message(s, 1, block.block_hash)).hex() for s in signers}}

    assert not engine.verify_synced_block(block, {"signers": ["v0", "v1", "v2"], "signatures": {}})
    # Four valid statements, one of them by a validator the directory knows.
    assert not engine.verify_synced_block(block, proof("v0", "v1", "v2", "v3"))
    engine.peer.directory["v1"] = keys["v1"].public_key
    assert engine.verify_synced_block(block, proof("v0", "v1"))
    # One proof format: a bare name list is rejected.
    assert not engine.verify_synced_block(block, ["v0", "v1", "v2"])
    engine.on_synced_block(block, proof("v0", "v1"))
    assert engine.sync_proof(1) == proof("v0", "v1")


def test_pbft_commit_vote_needs_membership_and_digest_only():
    """Commit votes are counted like prepares: from a validator, toward
    the digest they name, with no signature to carry or check."""
    network, _ = _run_network(n_txs=1)
    peer = network.peers[0]
    core = peer.engine.core
    height = peer.ledger.height + 1
    rejected = network.obs.total("pbft.votes_rejected_nonvalidator")
    payload = {"view": core.view, "height": height, "digest": "some-digest"}
    for src in ("peer-1", "rogue-0"):
        peer.on_message(Message(src, peer.node_id, Commit.kind, payload, network.sim.now))
    assert core.rounds[core.view, height].early == {("peer-1", True): "some-digest"}
    assert network.obs.total("pbft.votes_rejected_nonvalidator") == rejected + 1
    assert not hasattr(peer.engine, "votes_rejected_bad_signature")
    assert network.obs.total("pbft.votes_rejected_bad_signature") == 0


def test_statement_is_signed_once_per_height_and_hash(monkeypatch):
    """A flood of attest requests costs lookups, not signatures, and the
    memo that makes it so stays small."""
    network, _ = _run_network(n_txs=1)
    peer = network.peers[0]
    signed = []
    sign = ed25519.sign
    monkeypatch.setattr(
        ed25519, "sign", lambda seed, message: signed.append(message) or sign(seed, message))
    block_hash = peer.ledger.block(1).block_hash
    first = peer.sync._statement(1, block_hash)
    assert all(peer.sync._statement(1, block_hash) == first for _ in range(50))
    assert len(signed) <= 1  # 0 if height 1 was announced as the head
    for height in range(2, 2 + 3 * peer.sync.SIGNED_MEMO):
        peer.sync._statement(height, block_hash)
    assert len(peer.sync._signed) == peer.sync.SIGNED_MEMO
    assert ed25519.verify(
        peer.keypair.public_key, statement_message(peer.node_id, 1, block_hash),
        peer.sync._statement(1, block_hash)["signature"])


def test_a_statement_is_checked_against_the_directory_even_the_first_one():
    """A sync statement carries what was signed and the signature, no key
    and no name: the key is the one ``peer.directory`` holds for the
    message's sender.  A statement signed with another key is refused even
    as the first heard from that sender, as is one from a node the
    directory does not know — no key is pinned on first use."""
    from repro.chain.sync import KIND_ANNOUNCE, KIND_ATTEST

    network = BlockchainNetwork(n_peers=4, consensus="pbft", latency=FixedLatency(0.02),
                                block_interval=0.5)
    network.install_contract(CounterContract)
    victim, honest = network.peers[3], network.peers[0]
    impostor = KeyPair.generate(random.Random("impostor"))
    tip = "ab" * 32

    def forged(src):
        # Above the victim's head, so it is verified; with the key and the
        # name a statement once carried, which the check ignores.
        return {"node_id": src, "height": 5, "head_hash": tip, "voted": False,
                "public_key": impostor.public_key,
                "signature": impostor.sign(statement_message(src, 5, tip))}

    network.net.transmit("peer-0", victim.node_id, KIND_ANNOUNCE, forged("peer-0"))
    network.net.transmit("peer-1", victim.node_id, KIND_ATTEST, forged("peer-1"))
    network.run_for(0.1)
    assert peer_count(victim, "sync.announcements_rejected") == 1
    assert peer_count(victim, "sync.announcements_verified") == 0
    assert network.obs.counter("sync.statements_rejected", peer=victim.node_id,
                               reason="bad-signature").value == 1
    network.net.transmit("rogue-0", victim.node_id, KIND_ANNOUNCE, forged("rogue-0"))
    network.run_for(0.1)
    assert peer_count(victim, "sync.announcements_rejected") == 2
    assert not victim.sync.is_lagging()

    # The sender's own key still holds after the forgery; an honest
    # announcement carries nothing the directory already says.
    payloads = []
    on_message = victim.on_message
    victim.on_message = lambda message: (
        message.kind == KIND_ANNOUNCE and payloads.append(message.payload)) or on_message(message)
    network.net.transmit("peer-0", victim.node_id, KIND_ANNOUNCE, {
        "height": 5, "head_hash": tip, "voted": False,
        "signature": honest.keypair.sign(statement_message("peer-0", 5, tip))})
    network.run_for(2.5)
    network.stop()
    assert peer_count(victim, "sync.announcements_verified") == 1
    assert len(payloads) > 1
    assert all(set(p) == {"height", "head_hash", "voted", "signature"} for p in payloads)


# -- one check per signature, where its verdict is used ------------------------

class SlotContract(Contract):
    """Writes one key of the caller's choosing: units that never conflict."""

    name = "slot"

    @contract_method
    def touch(self, ctx, key: str):
        ctx.put(key, 1)


def _slot_network(seed):
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=seed, view_timeout=5.0,
    )
    network.install_contract(SlotContract)
    return network


def test_each_committed_signature_is_verified_uncached_once(monkeypatch):
    """Four peers admit and commit groups and single transactions; every
    client signature and endorsement they committed reaches the curve
    once in the process — admission, commit and every other peer read
    the content-keyed cache."""
    uncached = []
    verify_uncached = ed25519._verify_uncached
    monkeypatch.setattr(
        ed25519, "_verify_uncached",
        lambda *item: uncached.append(item) or verify_uncached(*item))
    network = _slot_network(seed=8)
    clients = [network.client() for _ in range(3)]
    for round_ in range(3):
        network.submit(*network.endorse_group(
            [(client, "slot", "touch", {"key": f"g{round_}-{k}"})
             for k, client in enumerate(clients)]))
        network.run_for(1.5)
        network.submit(network.endorse_transaction(
            clients[round_], "slot", "touch", {"key": f"s{round_}"}))
        network.run_for(1.5)
    network.stop()

    committed = [c.transaction for c in network.peers[0].ledger.transactions()]
    assert len(committed) == 12
    assert network.obs.total("chain.groups_committed") == 3 * len(network.peers)
    triples = set()
    for tx in committed:
        triples.add(tx.signature_item())
        triples.update(
            (network.directory[e.peer_id], f"{tx.endorsed_id}:{e.digest}".encode("utf-8"),
             bytes.fromhex(e.signature_hex))
            for e in tx.endorsements)
    counts = Counter(item for item in uncached if item in triples)
    assert set(counts) == triples
    assert set(counts.values()) == {1}


def _flipped(signature_hex):
    signature = bytearray.fromhex(signature_hex)
    signature[0] ^= 1
    return signature.hex()


def test_forged_units_keep_their_verdicts_and_attribution():
    """A block with a good transaction, a group with one forged client
    signature, a transaction whose endorsements are forged, and one with
    both: each unit is judged by the first check it fails, in the order
    signature, endorsement — on every peer."""
    network = _slot_network(seed=4)
    client = network.client()

    def touch(key):
        return (client, "slot", "touch", {"key": key})

    good = network.endorse_transaction(*touch("good"))
    first, second = network.endorse_group([touch("g0"), touch("g1")])
    forged = dataclasses.replace(second, signature_hex=_flipped(second.signature_hex))
    bad_endorsements = network.endorse_transaction(*touch("e"))
    bad_endorsements = dataclasses.replace(bad_endorsements, endorsements=tuple(
        dataclasses.replace(e, signature_hex=_flipped(e.signature_hex))
        for e in bad_endorsements.endorsements))
    both = dataclasses.replace(
        bad_endorsements, signature_hex=_flipped(bad_endorsements.signature_hex))
    txs = [good, first, forged, bad_endorsements, both]

    for peer in network.peers:
        peer.commit_block(Block.build(1, peer.ledger.head.block_hash, 0.0, peer.node_id, txs))
        assert peer.ledger.block_validity(1) == [True, False, False, False, False]
        errors = [peer.ledger.receipt_at(1, k).error for k in range(len(txs))]
        assert errors[0] is None
        assert errors[1] == errors[2] == (
            f"group {first.group[0][:12]} member 1: bad signature on tx {forged.tx_id[:12]}")
        assert "endorsement" in errors[3]
        assert errors[4] == f"bad signature on tx {both.tx_id[:12]}"
        assert peer_count(peer, "peer.signature_failures") == 3
        assert peer_count(peer, "peer.endorsement_failures") == 1
    assert network.obs.total("chain.groups_aborted") == len(network.peers)
    network.stop()
