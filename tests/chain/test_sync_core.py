"""The sync rules one at a time, scripted against a bare :class:`SyncCore`.

Each test feeds a lagging observer ``lag`` typed inputs and asserts the
exact effects that come back: how a tip is certified (f+1 "applied"
statements, or 2f+1 "applied" or "voted" ones), how a tip still short at
the first re-ask is cut back, how a provider is dropped when the
validators contradict it, how timeouts strike and back off, and how PoA
blocks are checked one by one and drained from the future buffer.  The
certificate verdict is the real engine's, with real signatures.  The last
test is the same rule the network way: an answer from a node that was not
asked changes nothing.  (That a validator signs a statement once is
``test_batch_validation.py``'s.)
"""

from __future__ import annotations

import random

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.chain.block import Block, make_genesis_block
from repro.chain.consensus.pbft import PBFTEngine
from repro.chain.consensus.poa import RoundRobinOrderer
from repro.chain.sync import statement_message
from repro.chain.sync_core import (
    Apply,
    AttestRequest,
    CaughtUp,
    Closed,
    Count,
    Forget,
    LagStart,
    Request,
    Schedule,
    Statement,
    SyncCore,
)
from repro.crypto.keys import KeyPair
from repro.simnet import FailureSchedule, FixedLatency
from tests.conftest import peer_count

VALIDATORS = ["v0", "v1", "v2", "v3"]
GENESIS = make_genesis_block()
KEYS = {v: KeyPair.generate(random.Random(f"core:{v}")) for v in VALIDATORS}


def _chain(length: int, proposer=lambda height: "v0") -> list[Block]:
    """Genesis and *length* blocks on it."""
    chain = [GENESIS]
    for height in range(1, length + 1):
        chain.append(Block.build(height, chain[-1].block_hash, float(height), proposer(height), []))
    return chain


B = _chain(4)


def _said(signer: str, block: Block, voted: bool = False) -> Statement:
    """*signer*'s signed statement for *block*."""
    message = statement_message(signer, block.height, block.block_hash, voted)
    return Statement(block.height, block.block_hash, KEYS[signer].sign(message).hex(), voted)


def _proof(*statements: tuple[str, Statement]) -> dict:
    return {
        "signers": sorted(signer for signer, _ in statements),
        "signatures": {signer: statement.signature for signer, statement in statements},
        "voted": sorted(signer for signer, statement in statements if statement.voted),
    }


def _pbft_core() -> SyncCore:
    """An observer at genesis; the certificate rule is PBFT's, keys registered."""
    engine = PBFTEngine(VALIDATORS)
    engine.register_validator_keys({v: kp.public_key for v, kp in KEYS.items()})
    return SyncCore("lag", VALIDATORS, engine.quorum, GENESIS, engine.verify_synced_block)


def _settle(core: SyncCore, effects: list) -> list:
    """What the driver does after an apply: the blocks go back, the core goes on."""
    assert type(effects[-1]) is Apply
    for block in effects[-1].batch:
        core.applied(block)
    return core.settled()


def test_tip_certified_by_f_plus_one_applied_statements():
    core = _pbft_core()
    assert core.claim("v0", 2) == [
        LagStart(2), Schedule(("timeout", "lag#1"), 1.5), Request("lag#1", "v0", 1, 2)]
    v1, v2 = _said("v1", B[2]), _said("v2", B[2])
    assert core.statement("v1", v1, announced=True) == [Count("sync.statements_verified")]
    # Held: one "applied" statement is f, one short.  Whoever has not
    # spoken on the tip is asked, and asked again in BACKOFF_BASE.
    assert core.response("v0", "lag#1", 2, B[1:3]) == [
        AttestRequest("v0", 2), AttestRequest("v2", 2), AttestRequest("v3", 2),
        Schedule(("reask", "lag#1"), 0.5)]
    effects = core.statement("v2", v2, announced=False)
    assert effects == [Count("sync.statements_verified"), Closed("applied"),
                       Apply((B[1], B[2]), _proof(("v1", v1), ("v2", v2)))]
    assert _settle(core, effects) == [CaughtUp(2)]
    assert core.head == B[2] and core.request is None and core.lag_from is None


def test_tip_certified_by_two_f_plus_one_applied_or_voted_statements():
    core = _pbft_core()
    core.claim("v0", 1)
    assert core.response("v0", "lag#1", 1, B[1:2])[-1] == Schedule(("reask", "lag#1"), 0.5)
    # Two votes are neither f+1 "applied" nor 2f+1 in all.
    for voter in ("v1", "v2"):
        assert core.statement(voter, _said(voter, B[1], voted=True), announced=False) == [
            Count("sync.statements_verified")]
    v3 = _said("v3", B[1])
    assert core.statement("v3", v3, announced=False)[1:] == [
        Closed("applied"),
        Apply((B[1],), _proof(("v1", _said("v1", B[1], True)), ("v2", _said("v2", B[1], True)),
                              ("v3", v3)))]


def test_tip_short_at_the_first_reask_is_cut_to_what_f_plus_one_hold():
    core = _pbft_core()
    core.claim("v0", 4)
    v1, v2 = _said("v1", B[2]), _said("v2", B[2])
    core.statement("v1", v1, announced=True)
    core.statement("v2", v2, announced=True)
    assert core.response("v0", "lag#1", 4, B[1:5]) == [
        *(AttestRequest(v, 4) for v in VALIDATORS), Schedule(("reask", "lag#1"), 0.5)]
    # Nobody can vouch for the tip at 4; v1 and v2 hold 2, which is f+1.
    effects = core.fire(("reask", "lag#1"))
    assert effects == [Closed("applied"), Apply((B[1], B[2]), _proof(("v1", v1), ("v2", v2)))]
    # The rest is fetched again.
    assert _settle(core, effects) == [
        Schedule(("timeout", "lag#2"), 1.5), Request("lag#2", "v0", 3, 4)]


def test_tip_short_at_the_first_reask_is_cut_to_one_block():
    core = _pbft_core()
    core.claim("v0", 4)
    core.response("v0", "lag#1", 4, B[1:5])
    # No f+1 validators are known to hold anything: above the head only a
    # vote can certify, and a vote covers the block right above it.
    assert core.fire(("reask", "lag#1")) == [
        *(AttestRequest(v, 1) for v in VALIDATORS), Schedule(("reask", "lag#1"), 0.5)]
    assert core.batch == [B[1]]


def test_provider_dropped_as_soon_as_the_validators_contradict_its_tip():
    core = _pbft_core()
    fork = Block.build(1, GENESIS.block_hash, 9.0, "v3", [])
    assert core.claim("v3", 1)[-1] == Request("lag#1", "v3", 1, 1)
    assert core.claim("v0", 1) == []
    core.response("v3", "lag#1", 1, [fork])
    wrong_hash = Count("sync.statements_rejected", "wrong-hash")
    # One contradiction leaves three validators, a quorum, who might vouch.
    assert core.statement("v0", _said("v0", B[1]), announced=False) == [wrong_hash]
    # Two leave two: the tip can never be certified.
    assert core.statement("v1", _said("v1", B[1]), announced=False) == [
        wrong_hash, Closed("rejected"), Count("sync.invalid_blocks"), Forget("v3"),
        Schedule(("timeout", "lag#2"), 1.5), Request("lag#2", "v0", 1, 1)]
    assert core.known_heights == {"v0": 1}


def test_only_the_asked_provider_answers_and_only_once():
    core = _pbft_core()
    core.claim("v0", 2)
    orphan = Block.build(1, "no-such-parent", 1.0, "v1", [])
    assert core.response("v1", "lag#1", 9, [orphan]) == [Count("sync.stale_responses")]
    assert core.known_heights == {"v0": 2} and core.request == "lag#1" and not core.batch
    core.response("v0", "lag#1", 2, B[1:3])
    assert core.response("v0", "lag#1", 2, B[1:3]) == [Count("sync.stale_responses")]


def test_timeouts_strike_back_off_and_fail_over():
    core = _pbft_core()
    core.claim("v0", 2)
    jitter = random.Random("sync:lag")  # the core's stream, drawn in the same order
    assert core.fire(("timeout", "lag#1")) == [
        Closed("timeout"), Count("sync.timeouts"),
        Schedule(("retry", "lag#1"), 0.5 * (1.0 + 0.25 * jitter.random()))]
    assert core.fire(("timeout", "lag#1")) == []  # its request is over
    assert core.claim("v1", 1) == []  # the backoff is not cut short
    assert core.fire(("retry", "lag#1")) == [
        Schedule(("timeout", "lag#2"), 1.5), Count("sync.retries"), Request("lag#2", "v0", 1, 2)]
    # PROVIDER_PATIENCE timeouts in a row forget the provider's claim, and
    # the wait doubles.
    assert core.fire(("timeout", "lag#2")) == [
        Closed("timeout"), Count("sync.timeouts"), Forget("v0"),
        Schedule(("retry", "lag#2"), 1.0 * (1.0 + 0.25 * jitter.random()))]
    assert core.fire(("retry", "lag#2")) == [
        Schedule(("timeout", "lag#3"), 1.5), Count("sync.retries"), Request("lag#3", "v1", 1, 1)]


def test_restart_forgets_everything_and_times_what_the_disk_lost():
    core = _pbft_core()
    core.claim("v0", 2)
    assert core.restart(B[1], lost=1) == [Closed("cancelled"), LagStart(0)]
    assert core.head == B[1] and not core.known_heights and core.lag_from == 1
    assert core.claim("v0", 1) == [CaughtUp(0)]


def test_poa_blocks_carry_their_own_authority_and_the_buffer_drains_in_order():
    engine = RoundRobinOrderer(VALIDATORS)
    core = SyncCore("lag", VALIDATORS, engine.quorum, GENESIS, engine.verify_synced_block)
    led = _chain(3, proposer=engine.leader_for)
    wrong = Block.build(1, GENESIS.block_hash, 1.0, "v0", [])  # v1 leads height 1
    assert core.offer("v0", wrong) == [Count("sync.invalid_blocks")]
    assert core.offer("v3", led[3]) == [
        Count("sync.buffered_future"), LagStart(3),
        Schedule(("timeout", "lag#1"), 1.5), Request("lag#1", "v3", 1, 3)]
    assert core.offer("v2", led[2]) == [Count("sync.buffered_future")]
    effects = core.offer("v1", led[1])
    assert effects == [Apply((led[1],), None)]
    effects = _settle(core, effects)
    assert effects == [Apply((led[2],), None)]
    effects = _settle(core, effects)
    assert effects == [Apply((led[3],), None)]
    assert _settle(core, effects) == [CaughtUp(3)]
    assert core.response("v3", "lag#1", 3, led[1:]) == [Closed("response")]

    # A fetched batch is put to the same check block by block: a proof for
    # its tip would say nothing about the blocks below it.
    core = SyncCore("lag", VALIDATORS, engine.quorum, GENESIS, engine.verify_synced_block)
    core.claim("v2", 2)
    tip = Block.build(2, wrong.block_hash, 2.0, "v2", [])
    assert core.response("v2", "lag#1", 2, [wrong, tip]) == [
        Closed("rejected"), Count("sync.invalid_blocks"), Forget("v2"), CaughtUp(0)]


def test_an_answer_from_a_node_that_was_not_asked_changes_nothing():
    """peer-1 answers peer-3's request to peer-0 before peer-0 can, under
    the request's own id (ids are predictable), with a block that links to
    nothing.  It is counted as stale and nothing else happens: peer-0
    keeps its claim and nobody is failed over, and peer-0's answer is
    applied once the validators vouch for its tip."""
    from repro.chain.sync import KIND_REQUEST, KIND_RESPONSE
    from tests.chain.test_sync_recovery import _drive
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", latency=FixedLatency(0.02),
        block_interval=0.5, view_timeout=4.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    victim, spoofer = network.peers[3], network.peers[1]
    FailureSchedule(network.sim, network.net).crash_at(1.0, victim.node_id)
    _drive(network, n_txs=4)
    base, head = victim.ledger.height, network.peers[0].ledger.height
    assert head > base
    orphan = Block.build(base + 1, "no-such-parent", 1.0, spoofer.node_id, [])
    transmit = network.net.transmit

    def spoof(src, dst, kind, payload, _size=None):
        transmit(src, dst, kind, payload, _size)
        if kind == KIND_REQUEST and (src, dst) == (victim.node_id, "peer-0"):
            transmit(spoofer.node_id, src, KIND_RESPONSE,
                     {"req_id": payload["req_id"], "height": head + 9, "blocks": [orphan]})

    network.net.transmit = spoof
    victim.crashed = False
    victim.sync.note_remote_height("peer-0", head)  # the only claim: peer-0 is asked
    network.run_for(1.0)
    network.net.transmit = transmit
    network.stop()

    assert peer_count(victim, "sync.stale_responses") == 1
    assert peer_count(victim, "sync.provider_failovers") == 0
    assert peer_count(victim, "sync.invalid_blocks") == 0
    assert victim.sync.known_heights["peer-0"] == head
    assert victim.ledger.height == head
    assert auditor.final_check() == []
