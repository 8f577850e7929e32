"""Regression tests: PBFT quorums must count validators only.

The seed engine added *any* message ``src`` to prepare, commit and
view-change quorum sets, so a non-validator on the same network could
forge commit certificates or depose a healthy primary.  The
``old_code_path`` tests re-open that hole (by stubbing the core's
membership check, ``PBFTCore._member``, back to the seed's always-true
behavior) and
demonstrate both exploits; the rest assert the fixed engine shrugs the
same attacks off.
"""

from __future__ import annotations

from typing import Sequence

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.chain.block import make_genesis_block
from repro.chain.consensus.pbft_core import Commit, Count, PBFTCore, Prepare, ViewChange
from repro.simnet import FixedLatency, VoteFlooder
from repro.simnet.chaos import _PBFT_COMMIT, _PBFT_PREPARE, _PBFT_VIEW_CHANGE
from repro.chain.peer import Admission


def test_chaos_kind_literals_match_engine():
    """chaos.py mirrors the PBFT wire kinds without importing them (the
    simnet layer sits below chain); pin them together here."""
    assert _PBFT_PREPARE == Prepare.kind
    assert _PBFT_COMMIT == Commit.kind
    assert _PBFT_VIEW_CHANGE == ViewChange.kind


def _flooded_network(
    modes: Sequence[str] = ("forge", "echo", "view-change"),
    n_flooders: int = 3,
    seed: int = 7,
):
    """4 honest validators + *n_flooders* rogue non-validator nodes."""
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=seed, view_timeout=5.0,
    )
    network.install_contract(CounterContract)
    flooders = []
    for index in range(n_flooders):
        flooder = VoteFlooder(f"rogue-{index}", modes=modes)
        network.net.add_node(flooder)
        flooders.append(flooder)
    return network, flooders


def _drive(network, flooders, n_txs: int = 4, rounds: int = 12) -> list[str]:
    client = network.client()
    tx_ids = []
    for _ in range(n_txs):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        tx_ids.append(tx.tx_id)
    for _ in range(rounds):
        for flooder in flooders:
            flooder.flood_burst()
        network.run_for(1.0)
    network.run_for(10.0)
    return tx_ids


def test_exploit_view_change_forgery_on_old_code_path(monkeypatch):
    """Seed behavior: three rogue view-change votes reach 'quorum' and
    depose a healthy primary no honest replica voted against."""
    monkeypatch.setattr(PBFTCore, "_member", lambda self, src: True)
    network, flooders = _flooded_network(modes=("view-change",))
    for _ in range(3):
        for flooder in flooders:
            flooder.flood_burst()
        network.run_for(1.0)
    network.stop()
    assert all(p.engine.view > 0 for p in network.peers), (
        "forged view-change votes should have deposed the primary"
    )


def test_exploit_forged_certificate_on_old_code_path(monkeypatch):
    """Seed behavior: with two validators crashed (honest quorum is
    unreachable — the network *must* stall), echo flooders stand in for
    the missing validators and blocks commit on certificates that name
    non-validators."""
    monkeypatch.setattr(PBFTCore, "_member", lambda self, src: True)
    network, flooders = _flooded_network(modes=("echo",))
    auditor = InvariantAuditor(network, strict=False)
    network.net.node("peer-2").crashed = True
    network.net.node("peer-3").crashed = True
    _drive(network, flooders, rounds=8)
    network.stop()

    live = [p for p in network.peers if not p.crashed]
    assert any(p.ledger.height > 0 for p in live), (
        "exploit should commit blocks despite honest quorum being unreachable"
    )
    rogue_ids = {f.node_id for f in flooders}
    forged = [
        certificate
        for peer in live
        for _, certificate in peer.engine.commit_certificates.items()
        if set(certificate[1]) & rogue_ids
    ]
    assert forged, "no commit certificate carried a rogue signer"
    auditor.final_check()
    assert any(v.invariant == "certificate" for v in auditor.violations)
    kinds = {v.invariant for v in auditor.violations}
    assert "certificate" in kinds


def test_membership_check_defeats_the_flood():
    """The full attack against the fixed engine: every forged vote is
    rejected, no spurious view change, every certificate is 2f+1
    distinct validators, and the strict audit stays silent."""
    network, flooders = _flooded_network()
    auditor = InvariantAuditor(network)  # strict: raises on any violation
    tx_ids = _drive(network, flooders)
    network.stop()

    honest = network.peers
    assert all(p.engine.view == 0 for p in honest), "flooders forced a view change"
    assert network.obs.total("pbft.view_changes") == 0
    assert network.obs.total("pbft.votes_rejected_nonvalidator") > 0
    rogue_ids = {f.node_id for f in flooders}
    for peer in honest:
        for digest, certificate in peer.engine.commit_certificates.values():
            assert not (set(certificate) & rogue_ids)
            assert len(set(certificate)) >= peer.engine.quorum
    # The flood cost nothing: all transactions still commit.
    reference = max(honest, key=lambda p: p.ledger.height)
    assert all(tx_id in reference.receipts for tx_id in tx_ids)
    assert not auditor.final_check()


def test_quorum_loss_stalls_despite_flood():
    """Mirror of the forged-certificate exploit against the fixed
    engine: with two validators crashed, echo flooders must NOT be able
    to substitute for them — nothing commits."""
    network, flooders = _flooded_network(modes=("echo",))
    network.net.node("peer-2").crashed = True
    network.net.node("peer-3").crashed = True
    _drive(network, flooders, rounds=8)
    network.stop()
    assert all(p.ledger.height == 0 for p in network.peers), (
        "a block committed without an honest validator quorum"
    )


def test_no_commit_with_forged_digest():
    """Forge-mode flooders push a fabricated digest hard; it must never
    appear on any honest chain."""
    network, flooders = _flooded_network()
    _drive(network, flooders)
    network.stop()
    forged = flooders[0].forged_digest
    for peer in network.peers:
        for height in range(peer.ledger.height + 1):
            assert peer.ledger.block(height).block_hash != forged


def test_rounds_stay_bounded_under_garbage_flood():
    """Garbage (view, height) coordinates must not allocate round state:
    the seed engine leaked a ``_Round`` per unique key forever."""
    network, flooders = _flooded_network()
    _drive(network, flooders, rounds=20)
    network.stop()
    for peer in network.peers:
        core = peer.engine.core
        assert len(core.rounds) <= core.height_window * (core.VIEW_WINDOW + 1)
        assert len(core.rounds) < 20  # and in practice: a handful
        assert len(core.view_votes) <= core.VIEW_WINDOW + 1


def test_observer_peer_never_votes():
    """A late-joined observer (not in the validator set) follows the
    chain but must not vote: its id never appears in any certificate."""
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=3, view_timeout=5.0,
    )
    network.install_contract(CounterContract)
    client = network.client()
    tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    network.submit(tx)
    network.wait_for_receipt(tx.tx_id)
    observer = network.join_peer("observer-0")
    for _ in range(3):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.wait_for_receipt(tx.tx_id)
    network.run_for(5.0)
    network.stop()
    assert observer.ledger.height >= 1  # it does follow the chain
    for peer in network.peers:
        for _, certificate in peer.engine.commit_certificates.items():
            assert "observer-0" not in certificate[1]


def test_deposed_primary_requeues_inflight_txs():
    """The silent tx-drop on view change: a deposed primary's
    taken-but-uncommitted transactions must return to its mempool
    instead of vanishing."""
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=11, view_timeout=2.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    client = network.client()
    primary = network.peers[0]  # primary of view 0
    # tx_a is gossiped everywhere; tx_b exists only on the primary.
    tx_a = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    tx_b = network.endorse_transaction(client, "counter", "increment", {"amount": 2})
    network.submit(tx_a)
    auditor.track_tx(tx_b.tx_id)
    network.run_for(0.3)  # let tx_a's gossip land before the partition
    assert primary.submit(tx_b, gossip=False) is Admission.ADMITTED
    # Split 2|2: the primary proposes a block (taking tx_a and tx_b) that
    # can never gather quorum on either side, so every replica stalls.
    # After the heal, the joint view change deposes the primary — which
    # must then re-queue the transactions its dead round had taken.
    network.net.partition({"peer-0", "peer-1"})
    network.run_for(8.0)
    network.net.heal()
    network.run_for(20.0)
    network.stop()
    assert primary.engine.view >= 1, "deposed primary never joined the view change"
    assert primary.ledger.height == 0 or tx_a.tx_id in primary.receipts
    majority = network.peers[1]
    assert tx_a.tx_id in majority.receipts, "tx_a did not commit after view change"
    # tx_b was in the deposed round; it must be back in the primary's
    # mempool (or committed later) — not silently dropped.
    assert (tx_b.tx_id in primary.mempool) or (tx_b.tx_id in primary.receipts), (
        "deposed primary's in-flight tx vanished"
    )
    assert not auditor.final_check()


def test_view_change_votes_require_membership():
    """View-change votes from unknown ids: each is counted as rejected,
    and no quorum ever assembles from them."""
    core = PBFTCore(["peer-0", "peer-1", "peer-2", "peer-3"], "peer-0", 4, make_genesis_block())
    for fake in ("ghost-1", "ghost-2", "ghost-3", "ghost-4"):
        assert core.receive(fake, ViewChange(1)) == [Count("pbft.votes_rejected_nonvalidator")]
    assert core.view == 0 and not core.view_votes
    # Real validators still can change the view.
    for validator in ("peer-1", "peer-2"):
        assert core.receive(validator, ViewChange(1)) == []
    assert core.receive("peer-3", ViewChange(1)) == [Count("pbft.view_changes")]
    assert core.view == 1
