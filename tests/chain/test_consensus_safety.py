"""Randomized fault schedules: consensus safety must survive all of them.

Each case builds a network, injects a random mix of crashes, recoveries,
partitions, heals, and message drops while a client submits
transactions, then asserts the two invariants that define safety:

- no two live peers ever disagree on a committed block (prefix check),
- equal-height peers hold bit-identical world state (app-hash check).

Liveness under arbitrary faults is *not* asserted (a partitioned
minority may stall — that is correct); only that whatever commits is
consistent.
"""

import random

import pytest

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.chain.block import Block, make_genesis_block
from repro.chain.consensus.pbft_core import (
    Broadcast,
    Commit,
    Count,
    PBFTCore,
    Prepare,
    PrePrepare,
    Requeue,
    RoundEvent,
    ViewChange,
)
from repro.simnet import FailureSchedule, UniformLatency
from repro.simnet.network import Message
from repro.chain.peer import Admission
from tests.conftest import peer_count


def _run_chaos(seed: int, consensus: str) -> tuple[BlockchainNetwork, InvariantAuditor]:
    from tests.conftest import CounterContract

    rng = random.Random(seed)
    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.5,
        latency=UniformLatency(0.01, 0.08), seed=seed,
        view_timeout=4.0,
        drop_probability=rng.choice([0.0, 0.02]),
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)  # strict: any violation raises
    schedule = FailureSchedule(network.sim, network.net)
    peer_ids = [p.node_id for p in network.peers]
    # Random fault plan: at most one peer down at a time (stay within f=1).
    victim = rng.choice(peer_ids)
    crash_at = rng.uniform(2.0, 10.0)
    schedule.crash_at(crash_at, victim)
    schedule.recover_at(crash_at + rng.uniform(3.0, 8.0), victim)
    if rng.random() < 0.5:
        isolated = rng.choice(peer_ids)
        partition_at = rng.uniform(5.0, 15.0)
        schedule.partition_at(partition_at, {p for p in peer_ids if p != isolated})
        schedule.heal_at(partition_at + rng.uniform(2.0, 6.0))
    client = network.client()
    for index in range(15):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        entry = rng.choice(network.peers)
        # The entry may be crashed/partitioned — that's the point.
        if entry.submit(tx) is Admission.ADMITTED:
            auditor.track_tx(tx.tx_id)
        network.run_for(rng.uniform(0.5, 2.0))
    network.run_for(30.0)
    return network, auditor


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("consensus", ["poa", "pbft"])
def test_safety_under_random_faults(seed, consensus):
    network, auditor = _run_chaos(1000 + seed, consensus)
    network.assert_convergence()  # prefix + state-digest consistency
    assert not auditor.final_check()  # agreement/certificates/durability too
    for peer in network.peers:
        assert peer.ledger.verify_chain()


def test_pbft_byzantine_plus_crash_is_beyond_f_but_safe():
    """n=4 tolerates f=1; a byzantine primary *plus* a crashed replica is
    beyond the bound, so liveness may be lost — but safety must hold."""
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5, seed=77,
        byzantine_peers={"peer-0"}, view_timeout=3.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    network.peers[3].crashed = True
    client = network.client()
    for _ in range(5):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.peers[1].submit(tx)
        network.run_for(2.0)
    network.run_for(30.0)
    network.assert_convergence()  # no fork among honest peers, crashed included
    auditor.check_agreement()
    auditor.check_certificates()
    assert not auditor.violations


def test_commit_vote_is_a_lock_across_views():
    """One replica hears the commit quorum for height 2 and is cut off
    before its own votes get out; a fourth was down throughout.  The two
    replicas that voted commit must hold the next primaries to that block:
    the view change carries no prepared certificate, so nothing else stops
    a different block from being decided at the same height."""
    from repro.simnet import FixedLatency
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", latency=FixedLatency(0.02),
        block_interval=0.5, view_timeout=3.0, pipeline_depth=1,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network, strict=False)
    client = network.client()
    client.invoke("counter", "increment", {"amount": 1})
    network.run_for(1.0)
    network.peers[3].crashed = True
    # peer-1 hears everyone; nobody hears its votes or where its chain is.
    muted = {"pbft-commit", "pbft-committed", "pbft-view-change",
             "sync-announce", "sync-response"}
    transmit = network.net.transmit

    def lossy(src, dst, kind, payload, _size=None):
        if not (src == "peer-1" and kind in muted):
            transmit(src, dst, kind, payload, _size)

    network.net.transmit = lossy
    network.submit(network.endorse_transaction(client, "counter", "increment", {"amount": 1}))
    network.run_for(1.5)
    assert network.committed_heights() == {"peer-0": 1, "peer-1": 2, "peer-2": 1, "peer-3": 1}
    decided = network.peers[1].ledger.block(2).block_hash

    network.net.partition({"peer-1"})
    network.peers[3].restart()
    second = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    for index in (0, 2, 3):
        network.peers[index].submit(second, gossip=False)
        auditor.track_tx(second.tx_id)
    network.run_for(30.0)
    assert [p.engine.view for p in network.peers] == [2, 0, 2, 2]
    for index in (0, 2, 3):
        assert network.peers[index].ledger.block(2).block_hash == decided
    assert network.obs.total("pbft.lock_reproposals") > 0

    network.net.transmit = transmit
    network.net.heal()
    network.run_for(20.0)
    network.stop()
    assert auditor.final_check() == []
    assert set(network.committed_heights().values()) == {3}
    assert not any(p.engine.core.locks for p in network.peers)


VALIDATORS = ["peer-0", "peer-1", "peer-2", "peer-3"]
GENESIS = make_genesis_block()


def _core(**stable) -> PBFTCore:
    """peer-1's protocol state on a fresh chain (*stable*: view, locks)."""
    return PBFTCore(VALIDATORS, "peer-1", pipeline_depth=4, head=GENESIS, **stable)


def _wire(src: str, dst: str, message) -> Message:
    """*message* as the network carries it: its kind and its fields by name."""
    payload = {name: getattr(message, name) for name in message.__match_args__}
    return Message(src, dst, message.kind, payload, 0.0)


def _locked_replica():
    """peer-1, having voted commit for ``b1`` at height 1 in view 0 (two
    more prepares made its prepare quorum), then moved to view 1 — whose
    primary it is."""
    core = _core()
    b1 = Block.build(1, GENESIS.block_hash, 0.0, "peer-0", [])
    digest = b1.block_hash
    assert core.receive("peer-0", PrePrepare(0, 1, b1)) == [
        RoundEvent(0, 1, "opened"), Broadcast(Prepare(0, 1, digest))]
    assert core.receive("peer-2", Prepare(0, 1, digest)) == []
    assert core.receive("peer-3", Prepare(0, 1, digest)) == [Broadcast(Commit(0, 1, digest))]
    assert core.locks == {1: b1} and core.voted(1) == digest
    for voter in ("peer-1", "peer-2"):
        assert core.receive(voter, ViewChange(1)) == []
    assert core.receive("peer-3", ViewChange(1)) == [
        Count("pbft.view_changes"), RoundEvent(0, 1, "superseded")]
    assert core.view == 1 and not core.rounds and core.locks == {1: b1}
    return core, b1, Block.build(1, GENESIS.block_hash, 1.0, "peer-1", [])


def test_lock_refuses_another_digest_and_survives_restart():
    core, b1, other = _locked_replica()
    # Even the primary of view 1, this very replica, may only re-propose.
    assert core.receive("peer-1", PrePrepare(1, 1, other)) == [Count("pbft.lock_refusals")]
    assert (1, 1) not in core.rounds
    # The locked block itself is welcome in any view: as primary it
    # proposes exactly it, and votes for it.  Height 2 waits for a
    # proposal at 1 to chain onto.
    assert list(core.open_heights()) == [(1, None)]
    assert core.propose(1) == [
        Count("pbft.lock_reproposals"), Broadcast(PrePrepare(1, 1, b1)),
        RoundEvent(1, 1, "opened"), Broadcast(Prepare(1, 1, b1.block_hash))]
    assert list(core.open_heights()) == [(2, b1.block_hash)]

    # The engine keeps the view and the lock through a restart.
    from repro.simnet import FixedLatency
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", latency=FixedLatency(0.02),
        block_interval=0.5, view_timeout=30.0,
    )
    network.install_contract(CounterContract)
    replica = network.peers[1]
    script = [("peer-0", PrePrepare(0, 1, b1)), ("peer-2", Prepare(0, 1, b1.block_hash)),
              ("peer-3", Prepare(0, 1, b1.block_hash)),
              *((voter, ViewChange(1)) for voter in ("peer-0", "peer-2", "peer-3"))]
    for src, message in script:
        replica.on_message(_wire(src, "peer-1", message))
    assert replica.engine.core.locks == {1: b1} and replica.engine.view == 1
    replica.restart()
    assert replica.engine.core.locks == {1: b1} and replica.engine.view == 1
    replica.on_message(_wire("peer-1", "peer-1", PrePrepare(1, 1, other)))
    assert network.obs.total("pbft.lock_refusals") == 1
    assert replica.engine.pending_txs() == {tx.tx_id for tx in b1.transactions}
    # With an empty mempool the locked primary's next tick proposes it.
    network.run_for(0.6)
    assert network.obs.total("pbft.lock_reproposals") == 1
    assert replica.engine.core.rounds[1, 1].digest == b1.block_hash
    network.stop()


def test_lock_released_on_apply_and_lapses_off_chain():
    core, b1, other = _locked_replica()
    # Also locked one height up, on its own proposal, a child of b1.
    b2 = Block.build(2, b1.block_hash, 0.1, "peer-1", [])
    core.propose(2, b2)
    core.receive("peer-2", Prepare(1, 2, b2.block_hash))
    assert core.receive("peer-3", Prepare(1, 2, b2.block_hash)) == [
        Broadcast(Commit(1, 2, b2.block_hash))]
    assert core.locks == {1: b1, 2: b2}
    assert core.voted(1) == b1.block_hash and core.voted(2) is None  # gap below it
    # Height 1 is applied with the *other* block (it came in by sync): the
    # lock at 1 is released, and the one at 2 — whose parent lost its
    # height, so it can be applied nowhere — lapses with it and returns
    # its transactions.
    assert core.applied(other) == [Requeue(b2)]
    assert core.locks == {} and core.voted(1) is None and core.voted(2) is None


def test_byzantine_primary_cannot_certify_a_fabricated_parent():
    """A byzantine primary has two honest replicas vote commit for a block
    two heights above the head, whose parent it showed to nobody, and
    then serves a third replica [fabricated parent, that block] onto its
    head.  A commit vote says nothing about what lies below the block, and
    the hash chain would carry a certified tip's authority down to the
    fabrication: so a replica vouches for a block it voted for only once
    that block's parent is its own applied head."""
    from repro.chain.sync import KIND_ANNOUNCE, KIND_RESPONSE, statement_message
    from repro.simnet import FixedLatency
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", latency=FixedLatency(0.02),
        block_interval=0.5, view_timeout=3.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network, strict=False)
    client = network.client()
    client.invoke("counter", "increment", {"amount": 1})
    network.run_for(1.0)
    liar, victim = network.peers[0], network.peers[3]
    accomplices = network.peers[1:3]
    assert set(network.committed_heights().values()) == {1}

    fabricated = Block.build(2, liar.ledger.head.block_hash, 1.0, "peer-0", [])
    child = Block.build(3, fabricated.block_hash, 1.0, "peer-0", [])
    for peer in accomplices:
        liar.send(peer.node_id, "pbft-pre-prepare", {"view": 0, "height": 3, "block": child})
        liar.send(peer.node_id, "pbft-prepare",
                  {"view": 0, "height": 3, "digest": child.block_hash})
    network.run_for(0.2)
    for peer in accomplices:
        assert peer.engine.core.locks == {3: child}
        assert peer.engine.attested_hash(3) is None  # its parent is unsettled

    liar.sync._on_request = lambda message: liar.send(
        message.src, KIND_RESPONSE,
        {"req_id": message.payload["req_id"], "height": 3, "blocks": [fabricated, child]})
    liar.send(victim.node_id, KIND_ANNOUNCE, {  # "I applied it": the liar's own word
        "height": 3, "head_hash": child.block_hash, "voted": False,
        "signature": liar.keypair.sign(statement_message("peer-0", 3, child.block_hash))})
    applied = []
    victim.commit_listeners.append(lambda peer, block: applied.append(block.block_hash))
    network.run_for(5.0)
    assert peer_count(victim, "sync.attest_requests_sent") > 0, "the victim never held the batch"
    assert applied == [] and victim.ledger.height == 1

    # The chain moves on: height 2 is decided with another block, and the
    # locks on the orphaned child lapse.
    del liar.sync._on_request
    client.invoke("counter", "increment", {"amount": 1})
    network.run_for(15.0)
    network.stop()
    assert auditor.final_check() == []
    assert set(network.committed_heights().values()) == {2}
    assert fabricated.block_hash not in applied
    assert not any(p.engine.core.locks for p in network.peers)


def test_no_commit_vote_for_a_block_off_the_applied_head():
    """A primary's block for the next height that does not extend the
    applied head can be applied nowhere; a lock on it would hold the
    height against every other block for good, so it gets no commit vote
    however many prepares it gathers — and the view change that follows
    finds the replica free."""
    core = _core()
    orphan = Block.build(1, "no-such-parent", 0.0, "peer-0", [])
    core.receive("peer-0", PrePrepare(0, 1, orphan))
    for voter in ("peer-2", "peer-3"):
        assert core.receive(voter, Prepare(0, 1, orphan.block_hash)) == []
    rnd = core.rounds[0, 1]
    assert len(rnd.prepares) == 3 and "peer-1" not in rnd.commits
    assert core.locks == {} and core.voted(1) is None
