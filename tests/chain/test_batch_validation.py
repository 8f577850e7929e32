"""Batched verification threaded through the chain layer.

``verify_many`` must return exactly what per-signature
``ed25519.verify`` returns — only the verification schedule (and the
metrics) differ.  PBFT commit votes are Ed25519-signed whenever the
validator-key directory is registered, so stored certificates are
cryptographically checkable, and forged certificates that would pass a
bare name-set check are rejected.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import BlockchainNetwork
from repro.chain.consensus.pbft import PBFTEngine, _vote_message
from repro.crypto import KeyPair, ed25519
from repro.crypto.batch import verify_many
from repro.obs import MetricsRegistry
from repro.simnet import FixedLatency
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
    assert network.obs.total("crypto.batch_bisections") == 0  # honest run


def test_verify_many_modes_agree_and_label():
    """The batched schedule against the per-signature reference."""
    keypair = KeyPair.generate(random.Random(3))
    items = []
    for i in range(4):
        msg = f"m{i}".encode()
        items.append((keypair.public_key, msg, keypair.sign(msg)))
    items.append((keypair.public_key, b"forged", bytes(64)))
    registry = MetricsRegistry()
    batched = verify_many(items, registry=registry, peer="p0")
    ed25519.verify_cache_clear()
    assert batched == [ed25519.verify(*item) for item in items]
    assert batched == [True, True, True, True, False]
    (histogram,) = registry.histograms("phase.verify_batch")
    assert histogram.labels == {"peer": "p0"} and histogram.count == 1
    assert registry.total("crypto.batch_items") == len(items)


# -- signed PBFT certificates ------------------------------------------------

def test_pbft_records_signed_certificates():
    network, receipts = _run_network()
    assert all(r.success for r in receipts)
    committed = max(p.ledger.height for p in network.peers)
    assert committed > 0
    peer = max(network.peers, key=lambda p: p.ledger.height)
    engine = peer.engine
    for height in range(1, peer.ledger.height + 1):
        digest, certificate = engine.commit_certificates[height]
        signatures = engine.commit_signatures.get(height, {})
        # Every certificate signer with a registered key carries a
        # verifiable vote signature.
        assert set(signatures) <= set(certificate)
        assert len(signatures) >= engine.quorum
        for signer, sig_hex in signatures.items():
            key = engine.validator_keys[signer]
            assert ed25519.verify(
                key, _vote_message(signer, height, digest), bytes.fromhex(sig_hex)
            )


def test_pbft_sync_proof_round_trip():
    network, _ = _run_network()
    source = max(network.peers, key=lambda p: p.ledger.height)
    other = next(p for p in network.peers if p is not source)
    for height in range(1, source.ledger.height + 1):
        proof = source.engine.sync_proof(height)
        assert isinstance(proof, dict) and proof["signatures"]
        block = source.ledger.block(height)
        assert other.engine.verify_synced_block(block, proof)


def test_pbft_forged_certificate_rejected():
    """A name-set is worthless without valid vote signatures once keys
    are registered."""
    network, _ = _run_network()
    source = max(network.peers, key=lambda p: p.ledger.height)
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
    # Valid signatures for a DIFFERENT block don't transfer.
    real = source.engine.sync_proof(1)
    if source.ledger.height >= 2:
        other_block = source.ledger.block(2)
        assert not verifier.verify_synced_block(other_block, real)
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


def test_pbft_bad_vote_signature_rejected():
    network, _ = _run_network(n_txs=1)
    peer = network.peers[0]
    engine = peer.engine
    before = engine.votes_rejected_bad_signature
    height = peer.ledger.height + 1
    # A vote claiming to be from peer-1 (whose key is registered) with a
    # wrong signature must be dropped, not counted toward quorum.
    engine._on_commit(engine.view, height, "some-digest", "peer-1", b"\x00" * 64)
    assert engine.votes_rejected_bad_signature == before + 1
    assert network.obs.total("pbft.votes_rejected_bad_signature") >= 1
    # And an unsigned vote from a registered validator is equally dropped.
    engine._on_commit(engine.view, height, "some-digest", "peer-1", None)
    assert engine.votes_rejected_bad_signature == before + 2
