"""Batched verification threaded through the chain layer.

``verify_many`` must return exactly what per-signature
``ed25519.verify`` returns — only the verification schedule (and the
metrics) differ.  PBFT commit votes are channel-authenticated and carry
no signature; what a peer that was not there accepts for a block is
2f+1 validators' signed statements for its ``(height, hash)``, made on
request and batch-verified, and anything that would pass a bare name-set
check without them is rejected.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import BlockchainNetwork
from repro.chain.consensus.pbft import PBFTEngine
from repro.chain.consensus.pbft_core import Commit
from repro.chain.sync import statement_message
from repro.crypto import KeyPair, ed25519
from repro.crypto.batch import batch_meter, verify_many
from repro.obs import MetricsRegistry
from repro.simnet import FixedLatency
from repro.simnet.network import Message
from tests.conftest import CounterContract


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


def test_batch_mode_populates_phase_and_counters():
    network, receipts = _run_network(n_txs=2, consensus="poa")
    # Receipts may legitimately carry MVCC conflicts (hot counter key);
    # what matters here is that blocks committed through the batch path.
    assert all(r.block_height is not None for r in receipts)
    merged = network.obs.merged_histogram("phase.verify_batch")
    assert merged.count > 0
    assert network.obs.total("crypto.batch_calls") > 0
    assert network.obs.total("crypto.batch_items") >= network.obs.total("crypto.batch_calls")


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
                other.engine.validator_keys[signer],
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


def test_pbft_keyless_engine_keeps_legacy_semantics():
    """Standalone engines (no key directory) count signers by name:
    certificates with empty ``signatures`` verify, votes need none."""
    engine = PBFTEngine(["v0", "v1", "v2", "v3"])
    from repro.chain.block import Block

    block = Block.build(1, "genesis", 0.0, "v0", [])

    def proof(*signers):
        return {"signers": list(signers), "signatures": {}}

    assert engine.verify_synced_block(block, proof("v0", "v1", "v2"))
    assert not engine.verify_synced_block(block, proof("v0", "v1"))
    assert not engine.verify_synced_block(block, proof("v0", "ghost-1", "ghost-2"))
    # One proof format: a bare name list is rejected even without keys.
    assert not engine.verify_synced_block(block, ["v0", "v1", "v2"])
    engine.on_synced_block(block, proof("v0", "v1", "v2"))
    assert engine.sync_proof(1) == proof("v0", "v1", "v2")


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
