"""Deep catch-up and crash-recovery via :mod:`repro.chain.sync`.

The scenarios here are the ones the seed code could not survive:

- a PBFT replica crashed for 20+ blocks — far beyond the engine's
  ``HEIGHT_WINDOW`` round buffer — must fully catch up after it comes
  back, under both crash-*pause* (state intact) and crash-*restart*
  (volatile state wiped, world state replayed from the ledger);
- the PoA orderer's old anti-entropy only probed when the recovered
  peer had traffic to propose, so an idle network stalled it forever;
- sync under message loss must retry with backoff, and a provider that
  never answers (crashed, or a phantom byzantine height claim) must be
  failed over, not waited on forever.

"Caught up" is asserted the strong way — every peer at the same height
with the identical ``state_digest()``, plus the auditor's catch-up
invariant — not the old min-height prefix check that a permanently
lagging peer could pass.
"""

from __future__ import annotations

import pytest

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.simnet import FailureSchedule, UniformLatency


def _build(consensus: str, seed: int, drop: float = 0.0) -> tuple[BlockchainNetwork, InvariantAuditor, FailureSchedule]:
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.5,
        latency=UniformLatency(0.01, 0.05), seed=seed,
        view_timeout=4.0, drop_probability=drop,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    schedule = FailureSchedule(network.sim, network.net)
    return network, auditor, schedule


def _drive(network: BlockchainNetwork, n_txs: int, gap: float = 0.8) -> None:
    client = network.client()
    for _ in range(n_txs):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.run_for(gap)


def _assert_all_caught_up(network: BlockchainNetwork) -> None:
    heights = {p.node_id: p.ledger.height for p in network.peers}
    assert len(set(heights.values())) == 1, f"heights diverge: {heights}"
    digests = {p.node_id: p.state.state_digest() for p in network.peers}
    assert len(set(digests.values())) == 1, f"state digests diverge: {digests}"


@pytest.mark.parametrize("mode", ["pause", "restart"])
def test_pbft_replica_catches_up_beyond_height_window(mode):
    """A replica down for 20+ blocks (>> HEIGHT_WINDOW) fully recovers.

    The engine's round buffer only spans HEIGHT_WINDOW=8 heights, so
    nothing consensus retained can close this gap — only the ranged
    fetch path can, verifying each block against a stored 2f+1 commit
    certificate.
    """
    network, auditor, schedule = _build("pbft", seed=11)
    victim = network.peers[3]
    schedule.crash_at(1.0, victim.node_id)
    _drive(network, n_txs=26)
    head = max(p.ledger.height for p in network.peers)
    assert head - victim.ledger.height >= 20, "scenario failed to open a deep gap"
    assert head - victim.ledger.height > victim.engine.HEIGHT_WINDOW
    comeback = network.sim.now + 0.5
    if mode == "restart":
        schedule.restart_at(comeback, victim.node_id)
    else:
        schedule.recover_at(comeback, victim.node_id)
    network.run_for(25.0)
    network.stop()

    _assert_all_caught_up(network)
    assert victim.sync.metrics.blocks_synced >= 20
    assert victim.sync.metrics.syncs_completed >= 1
    if mode == "restart":
        assert victim.metrics.restarts == 1
    # The auditor's catch-up invariant (not min-height prefix) signs off.
    violations = auditor.final_check(failures=schedule.log, sync_window=25.0)
    assert violations == []
    latencies = auditor.catchup_latencies(schedule.log)
    assert latencies, "no recover/restart event was measured"
    assert all(lat is not None for _, lat in latencies)
    for peer in network.peers:
        assert peer.ledger.verify_chain()


def test_pbft_synced_blocks_carry_valid_certificates():
    """Catch-up must not weaken the certificate invariant: every block
    the recovered replica fetched lies at or below a tip for which it
    holds the statements of f+1 validators that applied it (nobody is
    down: nothing rests on a mere vote), and any other peer accepts
    those statements for that block."""
    network, auditor, schedule = _build("pbft", seed=12)
    victim = network.peers[2]
    victim.sync.MAX_BATCH = 5  # several batches, so several certified tips
    schedule.crash_at(1.0, victim.node_id)
    _drive(network, n_txs=24)
    schedule.recover_at(network.sim.now + 0.5, victim.node_id)
    network.run_for(20.0)
    network.stop()

    _assert_all_caught_up(network)
    engine = victim.engine
    tips = sorted(engine.synced_proofs)
    assert len(tips) >= 4 and victim.sync.metrics.attest_requests_sent > 0
    other = network.peers[0].engine
    for tip in tips:
        proof = engine.sync_proof(tip)
        assert len(set(proof["signers"]) & set(engine.validators)) > engine.f
        assert proof["voted"] == [] and victim.node_id not in proof["signers"]
        assert other.verify_synced_block(victim.ledger.block(tip), proof)
    for height in range(1, victim.ledger.height + 1):
        entry = engine.commit_certificates.get(height)
        if entry is None:
            assert height <= tips[-1], f"synced height {height} lies above every certified tip"
        else:  # decided here, before the crash or after the catch-up
            assert entry[0] == victim.ledger.block(height).block_hash
            assert len(set(entry[1]) & set(engine.validators)) >= engine.quorum
    assert network.obs.total("sync.statements_rejected") == 0
    assert auditor.final_check(failures=schedule.log, sync_window=20.0) == []


def test_idle_chain_catchup_needs_no_attest_request():
    """Nobody is deciding anything: every validator announces the same
    head, and those announcements are the certificate — one fetch, no
    statement asked for."""
    network, auditor, schedule = _build("pbft", seed=31)
    victim = network.peers[3]
    schedule.crash_at(1.0, victim.node_id)
    _drive(network, n_txs=10)
    network.run_for(5.0)
    head = max(p.ledger.height for p in network.peers)
    assert head - victim.ledger.height >= 8
    schedule.restart_at(network.sim.now + 0.3, victim.node_id)
    network.run_for(6.0)
    network.stop()

    _assert_all_caught_up(network)
    metrics = victim.sync.metrics
    assert metrics.attest_requests_sent == 0
    assert metrics.requests_sent == 1 and metrics.timeouts == 0
    assert list(victim.engine.synced_proofs) == [head]
    assert sorted(victim.engine.sync_proof(head)["signers"]) == ["peer-0", "peer-1", "peer-2"]
    assert auditor.final_check(failures=schedule.log, sync_window=6.0) == []


def test_fabricated_fork_is_refuted_before_the_timeout():
    """A provider serves blocks that link onto the requester's head and
    are well-formed, but that nobody decided.  The validators vouch for
    another block at the tip's height; once f+1 of them have, the tip can
    never reach a quorum: the provider is dropped at once and nothing of
    the batch is applied."""
    from repro.chain.block import Block
    from repro.chain.sync import KIND_RESPONSE

    network, auditor, schedule = _build("pbft", seed=37)
    victim, liar = network.peers[3], network.peers[0]
    schedule.crash_at(1.0, victim.node_id)
    _drive(network, n_txs=6)
    network.run_for(3.0)
    base = victim.ledger.height
    head = liar.ledger.height
    assert head - base >= 4
    # peer-0 answers every fetch with a fork of its own making.
    fork, prev = [], victim.ledger.head.block_hash
    for height in range(base + 1, base + 4):
        fork.append(Block.build(height, prev, 1.0, "peer-0", []))
        prev = fork[-1].block_hash
    liar.sync._on_request = lambda message: liar.send(
        message.src, KIND_RESPONSE,
        {"req_id": message.payload["req_id"], "height": head + 5, "blocks": fork})
    victim.crashed = False
    victim.sync.note_remote_height(liar.node_id, head + 5)  # tallest claim: asked first
    applied = []
    victim.commit_listeners.append(lambda peer, block: applied.append(block.block_hash))
    network.run_for(10.0)
    network.stop()

    metrics = victim.sync.metrics
    assert metrics.provider_failovers >= 1 and metrics.invalid_blocks >= 1
    assert metrics.timeouts == 0, "the refutation waited for the request timeout"
    assert network.obs.total("sync.statements_rejected") >= 2  # f + 1, labelled wrong-hash
    assert not {block.block_hash for block in fork} & set(applied)
    _assert_all_caught_up(network)
    assert auditor.final_check() == []


def test_validator_answers_an_attest_request_once_it_can():
    """Asked about a height it has neither applied nor voted on, a
    validator says nothing — it does not guess, and it keeps no list of
    who asked.  The same question put again once it has applied a block
    there is answered, in the "applied" form."""
    from repro.chain.sync import KIND_ATTEST, KIND_ATTEST_REQUEST

    network, _, _ = _build("pbft", seed=41)
    _drive(network, n_txs=2)
    network.run_for(2.0)
    asker, validator = network.peers[0], network.peers[1]
    height = validator.ledger.height + 1
    answers = []
    on_message = asker.on_message

    def spy(message):
        if message.kind == KIND_ATTEST:
            payload = message.payload
            answers.append((message.src, payload["height"], payload["head_hash"], payload["voted"]))
        on_message(message)

    asker.on_message = spy
    asker.send(validator.node_id, KIND_ATTEST_REQUEST, {"height": height})
    asker.send(validator.node_id, KIND_ATTEST_REQUEST, {"height": "tall"})  # not a height
    network.run_for(1.0)
    assert answers == []
    _drive(network, n_txs=1)
    network.run_for(2.0)
    assert answers == [] and validator.ledger.height == height
    asker.send(validator.node_id, KIND_ATTEST_REQUEST, {"height": height})
    network.run_for(0.5)
    network.stop()
    assert answers == [
        (validator.node_id, height, validator.ledger.block(height).block_hash, False)]


def test_one_peer_ahead_alone_and_three_behind_converge():
    """peer-1 hears the commit quorum for a block and applies it; its own
    commit votes reach nobody, so the three others sit one vote short.
    They voted commit for that block on top of their head, and say so:
    each of them can gather peer-1's statement, its own and a neighbour's
    — 2f+1, where peer-1's "applied" alone would be one short of f+1 —
    fetch the block and move on without a view change."""
    network, auditor, _ = _build("pbft", seed=43)
    _drive(network, n_txs=2)
    network.run_for(2.0)
    base = network.peers[0].ledger.height
    transmit = network.net.transmit

    def lossy(src, dst, kind, payload, _size=None):
        if not (src == "peer-1" and kind == "pbft-commit"):
            transmit(src, dst, kind, payload, _size)

    network.net.transmit = lossy
    network.peers[3].crashed = True  # the quorum is exactly peers 0, 1, 2
    _drive(network, n_txs=1, gap=1.0)
    assert network.committed_heights() == {
        "peer-0": base, "peer-1": base + 1, "peer-2": base, "peer-3": base}
    network.net.transmit = transmit
    network.run_for(3.0)  # next announcement round: peer-1 is seen ahead
    network.stop()
    for index in (0, 2):
        peer = network.peers[index]
        assert peer.ledger.height == base + 1
        proof = peer.engine.sync_proof(base + 1)
        assert proof["signers"] == ["peer-0", "peer-1", "peer-2"]
        assert proof["voted"] == ["peer-0", "peer-2"]  # only peer-1 says "applied"
        assert peer.engine.view == 0
    assert auditor.final_check() == []


def test_one_peer_ahead_by_a_pipeline_is_followed_block_by_block():
    """The same cut, three blocks long: peer-1 decides a whole pipeline
    alone.  A vote vouches for a block only right above the voter's head
    (it says nothing of the blocks in between), so the tallest tip cannot
    be certified; at the first re-ask the held batch is cut down to the
    one block the votes do cover, and the others follow a block at a time
    — no request times out, no view changes."""
    network, auditor, _ = _build("pbft", seed=43)
    _drive(network, n_txs=2)
    network.run_for(2.0)
    base = network.peers[0].ledger.height
    transmit = network.net.transmit

    def lossy(src, dst, kind, payload, _size=None):
        if not (src == "peer-1" and kind == "pbft-commit"):
            transmit(src, dst, kind, payload, _size)

    network.net.transmit = lossy
    network.peers[3].crashed = True
    _drive(network, n_txs=3, gap=0.6)
    assert network.committed_heights() == {
        "peer-0": base, "peer-1": base + 3, "peer-2": base, "peer-3": base}
    for index in (0, 2):
        assert sorted(network.peers[index].engine._locks) == [base + 1, base + 2, base + 3]
    network.net.transmit = transmit
    network.run_for(6.0)
    network.stop()
    for index in (0, 2):
        peer = network.peers[index]
        assert peer.ledger.height == base + 3 and peer.engine.view == 0
        assert sorted(peer.engine.synced_proofs) == [base + 1, base + 2, base + 3]
        assert all(peer.node_id in proof["voted"] for proof in peer.engine.synced_proofs.values())
        assert peer.sync.metrics.timeouts == 0 and peer.sync.metrics.requests_sent == 3
    assert auditor.final_check() == []


def test_block_decided_by_one_replica_alone_waits_for_its_voters():
    """The declared limit of signing on request.  peer-1 decides a block
    alone, then one of the two replicas that voted for it goes down and
    the fourth comes back: of the three validators up, one applied the
    block and one voted for it — neither f+1 "applied" nor 2f+1 in all —
    so nobody can fetch it, and peer-1 sits out the height, so nobody can
    decide it either.  Nothing else is decided there meanwhile, and the
    voter's return is all it takes."""
    network, auditor, _ = _build("pbft", seed=43)
    _drive(network, n_txs=2)
    network.run_for(2.0)
    base = network.peers[0].ledger.height
    transmit = network.net.transmit

    def lossy(src, dst, kind, payload, _size=None):
        if not (src == "peer-1" and kind == "pbft-commit"):
            transmit(src, dst, kind, payload, _size)

    network.net.transmit = lossy
    network.peers[3].crashed = True
    _drive(network, n_txs=1, gap=1.0)
    network.net.transmit = transmit
    network.peers[2].crashed, network.peers[3].crashed = True, False
    network.run_for(12.0)
    assert network.committed_heights() == {
        "peer-0": base, "peer-1": base + 1, "peer-2": base, "peer-3": base}
    for index in (0, 3):
        metrics = network.peers[index].sync.metrics
        assert metrics.attest_requests_sent > 0 and metrics.blocks_synced == 0
    network.peers[2].crashed = False
    network.run_for(10.0)
    assert set(network.committed_heights().values()) == {base + 1}
    _drive(network, n_txs=1, gap=3.0)
    network.stop()
    assert set(network.committed_heights().values()) == {base + 2}
    assert auditor.final_check() == []


def test_missed_decision_is_fetched_with_f_validators_down():
    """peers 0-2 decide a block that peer-3 hears nothing of, then peer-2
    goes down.  Only two validators are left to vouch for the block — but
    both say they *applied* it, one of f+1 such is honest, and that is
    enough: peer-3 fetches it on their announcements alone and the chain
    goes on with f validators down, one block at a time."""
    from repro.simnet import FixedLatency
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", latency=FixedLatency(0.02),
        block_interval=0.5, view_timeout=4.0, pipeline_depth=1,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    _drive(network, n_txs=2)
    base = network.peers[0].ledger.height
    transmit = network.net.transmit

    def deaf(src, dst, kind, payload, _size=None):
        if dst != "peer-3":
            transmit(src, dst, kind, payload, _size)

    network.net.transmit = deaf
    _drive(network, n_txs=1)
    assert network.committed_heights() == {
        "peer-0": base + 1, "peer-1": base + 1, "peer-2": base + 1, "peer-3": base}
    network.net.transmit = transmit
    network.peers[2].crashed = True
    network.run_for(3.0)  # one announcement round
    laggard = network.peers[3]
    assert laggard.ledger.height == base + 1
    proof = laggard.engine.sync_proof(base + 1)
    assert proof["signers"] == ["peer-0", "peer-1"] and proof["voted"] == []
    assert laggard.sync.metrics.attest_requests_sent == 0
    _drive(network, n_txs=2)
    network.stop()
    assert [p.ledger.height for p in network.peers] == [base + 3, base + 3, base + 1, base + 3]
    assert all(p.engine.view == 0 for p in network.peers)
    assert auditor.final_check() == []


def test_observer_follows_live_without_committed_broadcasts():
    """A non-validator joined late decides from the commit quorum it
    observes; no message re-ships a decided block to anyone."""
    network, auditor, _ = _build("pbft", seed=47)
    _drive(network, n_txs=3)
    kinds = set()
    transmit = network.net.transmit

    def spy(src, dst, kind, payload, _size=None):
        kinds.add(kind)
        transmit(src, dst, kind, payload, _size)

    network.net.transmit = spy
    observer = network.join_peer("observer-0")
    joined_at = observer.ledger.height
    _drive(network, n_txs=5)
    network.run_for(3.0)
    network.stop()
    _assert_all_caught_up(network)
    assert observer.ledger.height >= joined_at + 5
    assert "pbft-committed" not in kinds and "pbft-commit" in kinds
    assert observer.sync.metrics.blocks_synced == 0
    for height in range(joined_at + 1, observer.ledger.height + 1):
        digest, certificate = observer.engine.commit_certificates[height]
        assert digest == observer.ledger.block(height).block_hash
        assert "observer-0" not in certificate and len(certificate) >= observer.engine.quorum
    assert auditor.final_check() == []


def test_poa_idle_network_catchup_regression():
    """Regression for the PoA anti-entropy stall: the old probe only ran
    from the proposal path, so a recovered peer on an idle network (empty
    mempools, nothing left to propose) stayed behind forever.  The sync
    manager's announcement loop must close the gap with no new traffic.

    The victim is peer-0, whose leadership slots are heights 4, 8, … —
    rotation stalls at a crashed leader's slot, so the driven heights
    (1–3, led by peers 1–3) must all fall before the victim's turn.
    """
    network, auditor, schedule = _build("poa", seed=13)
    victim = network.peers[0]
    schedule.crash_at(0.2, victim.node_id)
    _drive(network, n_txs=3, gap=1.5)
    # Let every submitted tx commit and the mempools drain *before* the
    # victim returns: from here on there is no traffic to piggyback on.
    network.run_for(5.0)
    assert all(len(p.mempool) == 0 for p in network.peers if not p.crashed)
    gap = max(p.ledger.height for p in network.peers) - victim.ledger.height
    assert gap >= 3
    schedule.recover_at(network.sim.now + 0.5, victim.node_id)
    network.run_for(15.0)
    network.stop()

    _assert_all_caught_up(network)
    assert victim.sync.metrics.blocks_synced >= gap
    assert auditor.final_check(failures=schedule.log, sync_window=15.0) == []


def test_poa_fetched_batch_is_leader_checked_block_by_block():
    """Under PoA a block carries its own authority, so a proof for a
    batch's tip covers nothing below it: a fetched batch with a
    wrong-leader block *inside* is refused whole."""
    from repro.chain.block import Block
    from repro.chain.sync import KIND_RESPONSE

    network, auditor, schedule = _build("poa", seed=29)
    victim, liar = network.peers[0], network.peers[1]
    schedule.crash_at(0.2, victim.node_id)
    _drive(network, n_txs=3, gap=1.5)
    network.run_for(3.0)
    base, head = victim.ledger.height, liar.ledger.height
    assert head - base >= 3
    leader = victim.engine.leader_for
    wrong = next(v for v in victim.engine.validators if v != leader(base + 1))
    inside = Block.build(base + 1, victim.ledger.head.block_hash, 1.0, wrong, [])
    tip = Block.build(base + 2, inside.block_hash, 1.0, leader(base + 2), [])
    liar.sync._on_request = lambda message: liar.send(
        message.src, KIND_RESPONSE,
        {"req_id": message.payload["req_id"], "height": head + 5, "blocks": [inside, tip]})
    victim.crashed = False
    victim.sync.note_remote_height(liar.node_id, head + 5)  # tallest claim: asked first
    applied = []
    victim.commit_listeners.append(lambda peer, block: applied.append(block.block_hash))
    network.run_for(10.0)
    network.stop()

    assert victim.sync.metrics.invalid_blocks >= 1
    assert victim.sync.metrics.provider_failovers >= 1
    assert not {inside.block_hash, tip.block_hash} & set(applied)
    _assert_all_caught_up(network)
    assert auditor.final_check() == []


def test_sync_retries_under_message_loss():
    """With lossy links the fetch machinery must retry (timeout + backoff)
    rather than hang on the first dropped request or response.

    The chain is built on clean links (10% loss starves a 3-of-3 PBFT
    quorum outright), then the loss is switched on for the recovery
    phase only.  The victim's fetch batch is shrunk to 2 so closing the
    gap takes many request/response round-trips, each of which the 25%
    drop rate can kill — guaranteeing the timeout path is exercised.
    """
    network, auditor, schedule = _build("pbft", seed=17, drop=0.0)
    victim = network.peers[3]
    victim.sync.MAX_BATCH = 2  # instance override; class default is 64
    schedule.crash_at(1.0, victim.node_id)
    _drive(network, n_txs=24)
    gap = max(p.ledger.height for p in network.peers) - victim.ledger.height
    assert gap >= 20, "scenario failed to open a deep gap"
    network.net.drop_probability = 0.25
    schedule.recover_at(network.sim.now + 0.5, victim.node_id)
    network.run_for(90.0)
    network.stop()

    metrics = victim.sync.metrics
    assert metrics.requests_sent >= gap // 2
    assert metrics.timeouts + metrics.retries > 0, (
        "25% drop never exercised the retry path — scenario is miscalibrated"
    )
    _assert_all_caught_up(network)
    assert auditor.final_check(failures=schedule.log, sync_window=90.0) == []


def test_provider_failover_on_phantom_height():
    """A provider that never answers — here a crashed peer whose height
    claim arrived before it died — must be struck off after
    PROVIDER_PATIENCE timeouts so the node stops chasing the phantom."""
    network, _, schedule = _build("pbft", seed=19)
    _drive(network, n_txs=4)
    network.run_for(3.0)
    dead = network.peers[2]
    chaser = network.peers[3]
    schedule.crash_at(network.sim.now, dead.node_id)
    network.run_for(0.1)
    # The dead peer "claimed" a chain far beyond everyone; requests to it
    # can only time out.
    chaser.sync.note_remote_height(dead.node_id, 999)
    assert chaser.sync.is_lagging()
    network.run_for(20.0)
    network.stop()

    metrics = chaser.sync.metrics
    assert metrics.timeouts >= chaser.sync.PROVIDER_PATIENCE
    assert metrics.provider_failovers >= 1
    assert dead.node_id not in chaser.sync.known_heights
    # With the phantom forgotten the chaser is not stuck "lagging".
    assert not chaser.sync.is_lagging()


def test_restart_wipes_volatile_state_and_rebuilds_from_ledger():
    """Crash-restart semantics: the mempool dies, the ledger survives,
    world state and receipts are rebuilt bit-identical, and the auditor
    excuses exactly the wiped pending txs from durability."""
    network, auditor, _ = _build("pbft", seed=23)
    _drive(network, n_txs=4)
    network.run_for(5.0)
    victim = network.peers[2]  # a replica: submitting here won't propose
    client = network.client()
    pending = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    assert victim.submit(pending, gossip=False)
    auditor.track_tx(pending.tx_id)
    pre_height = victim.ledger.height
    pre_state = victim.state.state_digest()
    pre_receipts = {t: (r.block_height, r.success) for t, r in victim.receipts.items()}
    assert pre_height >= 4 and pre_receipts

    wiped = victim.restart()

    assert pending.tx_id in wiped
    assert pending.tx_id not in victim.mempool and len(victim.mempool) == 0
    assert victim.ledger.height == pre_height
    assert victim.state.state_digest() == pre_state
    assert {t: (r.block_height, r.success) for t, r in victim.receipts.items()} == pre_receipts
    assert victim.metrics.restarts == 1
    assert pending.tx_id in auditor.restart_wiped
    network.run_for(5.0)
    network.stop()
    # Durability passes only because the wiped tx is excused.
    assert auditor.final_check() == []
