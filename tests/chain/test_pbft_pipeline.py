"""Pipelined PBFT: windowed proposals, out-of-order commits, and the
digest-blind / equivocation-leak regressions.

Three seed bugs are pinned here:

- **digest-blind votes** — prepares and commits that arrived before the
  pre-prepare were counted without recording which digest they were
  for, so forged early votes for digest X were tallied toward whatever
  digest Y the pre-prepare later installed;
- **byzantine primary leaks txs** — the equivocating primary never
  installed local round state, so a deposed equivocator's taken
  transactions vanished (durability violation), and with a 1-tx batch
  its two "conflicting" blocks were byte-identical;
- **depth-blind stall detection** — the view timer treated any
  unchanged ledger height as a stall, even when pipelined rounds beyond
  the head were deciding blocks.

The rest covers the pipeline mechanics: out-of-order commit buffering,
view change mid-pipeline with full re-queue, and a hypothesis property
that pipelining never changes *what* commits — only how fast.  Protocol
rules are scripted as :class:`PBFTCore` inputs and the effects they must
return; what needs a mempool, a tick or a network runs on one.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain import BlockchainNetwork, Contract, InvariantAuditor, contract_method
from repro.chain.block import Block, make_genesis_block
from repro.chain.consensus.pbft_core import (
    Apply,
    Broadcast,
    Commit,
    Count,
    PBFTCore,
    Prepare,
    PrePrepare,
    RoundEvent,
    ViewChange,
)
from repro.simnet import FixedLatency
from repro.chain.peer import Admission

GENESIS = make_genesis_block()
QUORUM = ("peer-1", "peer-2", "peer-3")


def _core() -> PBFTCore:
    """peer-1's protocol state on a fresh chain, pipeline depth 4."""
    return PBFTCore(["peer-0", "peer-1", "peer-2", "peer-3"], "peer-1", 4, GENESIS)


def _chain(*timestamps: float) -> list[Block]:
    """Blocks at heights 1, 2, ... each on the one before, by peer-0."""
    blocks, parent = [], GENESIS.block_hash
    for height, timestamp in enumerate(timestamps, start=1):
        blocks.append(Block.build(height, parent, timestamp, "peer-0", []))
        parent = blocks[-1].block_hash
    return blocks


def _vote(core: PBFTCore, message_type, view: int, height: int, digest: str) -> list:
    """peer-2's and peer-3's votes; the effects of the second."""
    core.receive("peer-2", message_type(view, height, digest))
    return core.receive("peer-3", message_type(view, height, digest))


class KVContract(Contract):
    """Disjoint-key writes: every tx succeeds regardless of batching."""

    name = "kv"

    @contract_method
    def put(self, ctx, key: str, value: str):
        ctx.put(key, value)
        return True


def _network(**overrides) -> BlockchainNetwork:
    from tests.conftest import CounterContract

    params = dict(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=5, view_timeout=5.0,
    )
    params.update(overrides)
    network = BlockchainNetwork(**params)
    network.install_contract(CounterContract)
    return network


# -- digest-blind vote regression ------------------------------------------


def test_early_votes_for_other_digest_never_count():
    """Pre-fix: forged early votes for ``evil-digest`` were counted
    blindly and committed the primary's later (honest) block without an
    honest quorum.  Post-fix they are stashed per-digest and discarded
    at reconcile time."""
    core = _core()
    # Votes arrive BEFORE the pre-prepare, naming a digest the
    # pre-prepare will not carry.
    assert _vote(core, Prepare, 0, 1, "evil-digest") == []
    assert core.receive("peer-0", Commit(0, 1, "evil-digest")) == []
    assert _vote(core, Commit, 0, 1, "evil-digest") == []
    (block,) = _chain(0.0)
    assert core.receive("peer-0", PrePrepare(0, 1, block)) == [
        RoundEvent(0, 1, "opened"), Broadcast(Prepare(0, 1, block.block_hash))]
    # Only the replica's own prepare counts; the forged votes are gone.
    rnd = core.rounds[0, 1]
    assert rnd.prepares == {"peer-1"} and not rnd.commits and not rnd.early
    assert core.locks == {} and core.head is GENESIS


def test_early_votes_for_matching_digest_do_count():
    """The reconcile path is not vote suppression: early votes that
    named the digest the pre-prepare actually carries are promoted and
    complete the quorum."""
    core = _core()
    (block,) = _chain(0.0)
    digest = block.block_hash
    _vote(core, Prepare, 0, 1, digest)
    _vote(core, Commit, 0, 1, digest)
    # prepares: peer-2, peer-3 (promoted) + self = quorum -> commit sent;
    # commits: peer-2, peer-3 (promoted) + self = quorum -> applied.
    assert core.receive("peer-0", PrePrepare(0, 1, block)) == [
        RoundEvent(0, 1, "opened"), Broadcast(Prepare(0, 1, digest)),
        Broadcast(Commit(0, 1, digest)), Apply(0, block, QUORUM)]
    assert core.applied(block) == [] and core.head is block and not core.locks


# -- byzantine equivocation regressions ------------------------------------


def test_equivocating_primary_sends_distinct_blocks_for_single_tx():
    """Pre-fix, a 1-tx batch made ``block_a`` and ``block_b``
    byte-identical (``batch[:half]`` == ``reversed(batch)`` for one
    element) — no equivocation at all."""
    network = _network(byzantine_peers={"peer-0"}, view_timeout=10.0)
    client = network.client()
    tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    primary = network.peers[0]
    assert primary.submit(tx, gossip=False) is Admission.ADMITTED
    network.run_for(2.0)  # one proposal, well inside the view timeout
    digests = {
        peer.engine.core.rounds[0, 1].digest
        for peer in network.peers[1:]
        if (0, 1) in peer.engine.core.rounds
    }
    digests.discard(None)
    assert len(digests) == 2, "equivocating primary sent one block to everybody"
    network.stop()


def test_deposed_equivocator_requeues_taken_txs():
    """Pre-fix, ``_propose_equivocating`` installed no local round
    state, so the view change that deposed it had nothing to re-queue:
    the taken transactions vanished.  Two transactions are used so the
    conflicting blocks genuinely differ (with one tx the seed's blocks
    were identical, the block simply committed, and the leak was
    masked)."""
    network = _network(byzantine_peers={"peer-0"}, view_timeout=2.0)
    auditor = InvariantAuditor(network)
    client = network.client()
    primary = network.peers[0]
    txs = [
        network.endorse_transaction(client, "counter", "increment", {"amount": a})
        for a in (1, 2)
    ]
    for tx in txs:
        assert primary.submit(tx, gossip=False) is Admission.ADMITTED
        auditor.track_tx(tx.tx_id)
    # The split pre-prepares can't reach quorum on either digest, so the
    # honest replicas time out and depose the equivocator — which must
    # then return the transactions its dead round had taken.
    network.run_for(20.0)
    network.stop()
    assert any(p.engine.view >= 1 for p in network.peers[1:]), (
        "honest replicas never deposed the equivocating primary"
    )
    for tx in txs:
        assert (tx.tx_id in primary.mempool) or (tx.tx_id in primary.receipts), (
            "deposed equivocator's in-flight tx vanished"
        )


# -- pipeline mechanics ----------------------------------------------------


def test_out_of_order_quorum_buffers_until_gap_closes():
    """A commit quorum at h+2 before h+1 must park in the decided-block
    buffer (never apply out of order) and drain the moment h+1 lands."""
    core = _core()
    b1, b2 = _chain(0.0, 0.0)
    core.receive("peer-0", PrePrepare(0, 1, b1))
    core.receive("peer-0", PrePrepare(0, 2, b2))
    # Quorum for height 2 completes first.
    assert _vote(core, Prepare, 0, 2, b2.block_hash) == [Broadcast(Commit(0, 2, b2.block_hash))]
    assert _vote(core, Commit, 0, 2, b2.block_hash) == [RoundEvent(0, 2, "decided")]
    assert list(core.decided) == [2] and core.progress() == (0, 1, 2)
    # Now height 1 reaches quorum: it applies, and applying it releases
    # height 2, strictly in order.
    _vote(core, Prepare, 0, 1, b1.block_hash)
    assert _vote(core, Commit, 0, 1, b1.block_hash) == [Apply(0, b1, QUORUM)]
    assert core.applied(b1) == [Apply(0, b2, QUORUM)]
    assert core.applied(b2) == []
    assert core.decided == {} and core.locks == {} and not core.rounds


def test_late_quorum_on_orphaned_height_is_discarded_not_applied():
    """Commit quorum for h+2 that lands *after* sync filled the gap with
    a different h+1 block: the decided block is next in line but its
    parent lost the height, so it is discarded, not applied.  Pre-fix it
    was applied blindly — ``commit_block`` mutated receipts and world
    state before ``Ledger.append`` rejected the linkage, so the
    ``InvalidBlockError`` escaped with state already diverged from the
    chain."""
    core = _core()
    b1, b2 = _chain(0.0, 0.0)
    core.receive("peer-0", PrePrepare(0, 1, b1))
    core.receive("peer-0", PrePrepare(0, 2, b2))
    assert _vote(core, Prepare, 0, 2, b2.block_hash) == [Broadcast(Commit(0, 2, b2.block_hash))]
    assert core.locks == {2: b2}
    # The view changed elsewhere: sync applies a *different* height-1
    # block, orphaning the b1 -> b2 chain this replica voted on.  The lock
    # on b2 lapses with it.
    b1_alt = Block.build(1, GENESIS.block_hash, 0.1, "peer-2", [])
    assert core.applied(b1_alt) == [RoundEvent(0, 1, "superseded")]
    assert core.locks == {}
    # Now the quorum-completing commit votes for (0, 2) arrive: height
    # 2 is next in line, but b2 is parented on the losing b1.
    assert _vote(core, Commit, 0, 2, b2.block_hash) == [RoundEvent(0, 2, "discarded")]
    assert core.decided == {} and core.head is b1_alt


def test_view_change_discards_orphaned_buffered_decisions():
    """A decided-but-unapplied block whose parent round is deposed by a
    view change can never apply — pre-fix it sat in the buffer forever,
    refusing every pre-prepare at its height and holding its txs out of
    the mempool.  The view change must discard it, while a decision whose
    parent can still be applied (here: a block this replica is locked
    on) survives the prune."""
    core = _core()
    blocks = _chain(0.0, 0.0, 0.0, 0.0)
    for block in blocks:
        core.receive("peer-0", PrePrepare(0, block.height, block))
    b1, b2, b3, b4 = blocks
    _vote(core, Prepare, 0, 1, b1.block_hash)  # locked on b1, undecided
    for block in (b2, b4):  # decided out of order, parked on the gaps
        _vote(core, Prepare, 0, block.height, block.block_hash)
        decided = _vote(core, Commit, 0, block.height, block.block_hash)
        assert decided == [RoundEvent(0, block.height, "decided")]
    assert core.locks == {1: b1, 2: b2, 4: b4} and sorted(core.decided) == [2, 4]
    # The view change deposes the rounds at 1 and 3: b2 still chains onto
    # the lock at 1, nothing left can fill the gap under b4.
    for voter in ("peer-1", "peer-2"):
        core.receive(voter, ViewChange(1))
    assert core.receive("peer-3", ViewChange(1)) == [
        Count("pbft.view_changes"), RoundEvent(0, 1, "superseded"),
        RoundEvent(0, 3, "superseded"), RoundEvent(0, 4, "discarded")]
    assert core.view == 1 and list(core.decided) == [2]


def test_primary_pipelines_up_to_depth_heights():
    """With a full mempool and no quorum possible (partition), the
    primary must open ``pipeline_depth`` heights, each chained onto the
    digest of the proposal below it."""
    network = _network(max_block_txs=2, pipeline_depth=4, view_timeout=30.0)
    client = network.client()
    primary = network.peers[0]
    network.net.partition({"peer-0"})
    txs = [
        network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        for _ in range(8)
    ]
    for tx in txs:
        assert primary.submit(tx, gossip=False) is Admission.ADMITTED
    network.run_for(3.0)
    open_rounds = {
        height: state
        for (view, height), state in primary.engine.core.rounds.items()
        if view == 0 and state.digest is not None
    }
    assert sorted(open_rounds) == [1, 2, 3, 4]
    assert open_rounds[1].block.prev_hash == primary.ledger.head.block_hash
    for height in (2, 3, 4):
        assert open_rounds[height].block.prev_hash == open_rounds[height - 1].digest
    # Every taken tx is reserved: a gossip echo cannot re-enter the pool
    # and be double-proposed at a fifth height.
    for state in open_rounds.values():
        for tx in state.block.transactions:
            assert tx.tx_id in primary.mempool  # reserved
            assert not primary.mempool.add(tx)
    network.stop()


def test_view_change_mid_pipeline_requeues_whole_window():
    """Primary deposed with several uncommitted heights in flight: every
    taken transaction must end up committed or back in a mempool, and
    the full audit must stay silent."""
    network = _network(max_block_txs=2, pipeline_depth=4, view_timeout=2.0, seed=11)
    auditor = InvariantAuditor(network)
    client = network.client()
    primary = network.peers[0]
    tx_a = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    network.submit(tx_a)
    network.run_for(0.3)  # let tx_a's gossip land before the partition
    tracked = [tx_a]
    for index in range(6):
        tx = network.endorse_transaction(
            client, "counter", "increment", {"amount": 2 + index}
        )
        assert primary.submit(tx, gossip=False) is Admission.ADMITTED
        auditor.track_tx(tx.tx_id)
        tracked.append(tx)
    # 2|2 split: the primary pipelines several heights none of which can
    # reach quorum on either side.
    network.net.partition({"peer-0", "peer-1"})
    network.run_for(8.0)
    in_flight = [
        height for (view, height), state in primary.engine.core.rounds.items()
        if state.digest is not None
    ]
    assert len(in_flight) >= 3, (
        f"expected a pipeline of uncommitted heights, got {sorted(in_flight)}"
    )
    network.net.heal()
    network.run_for(25.0)
    network.stop()
    assert primary.engine.view >= 1, "primary was never deposed"
    for tx in tracked:
        assert any(
            tx.tx_id in peer.receipts or tx.tx_id in peer.mempool
            for peer in network.peers
        ), f"tx {tx.tx_id[:12]} vanished in the mid-pipeline view change"
    assert not auditor.final_check()


def test_stall_check_counts_buffered_decisions_as_progress():
    """A replica whose decided-block buffer moved since the timer was
    armed is making pipelined progress — it must not vote a view change
    even though its applied head is unchanged."""
    core = _core()
    token = core.progress()
    b1, b2 = _chain(0.0, 0.0)
    core.receive("peer-0", PrePrepare(0, 1, b1))  # open work: a true stall would fire
    core.receive("peer-0", PrePrepare(0, 2, b2))
    _vote(core, Prepare, 0, 2, b2.block_hash)
    assert _vote(core, Commit, 0, 2, b2.block_hash) == [RoundEvent(0, 2, "decided")]
    assert core.timeout(token, waiting=True) == [], (
        "buffered decided block was treated as a stall"
    )
    assert not core.view_votes
    # Control: with the token genuinely unchanged, the same fire votes.
    assert core.timeout(core.progress(), waiting=False) == [Broadcast(ViewChange(1))]
    assert core.view_votes == {1: {"peer-1"}} and core.head is GENESIS


def test_depth_one_matches_seed_behaviour():
    """``pipeline_depth=1`` is the unpipelined engine: never more than
    one height proposed per view, and everything still commits."""
    network = _network(pipeline_depth=1)
    client = network.client()
    max_open = 0

    def watch(_peer, _block):
        nonlocal max_open
        for peer in network.peers:
            open_heights = {
                height for (view, height), state in peer.engine.core.rounds.items()
                if state.block is not None and state.block.proposer == peer.node_id
            }
            max_open = max(max_open, len(open_heights))

    for peer in network.peers:
        peer.commit_listeners.append(watch)
    tx_ids = []
    for _ in range(6):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        tx_ids.append(tx.tx_id)
    network.run_for(30.0)
    network.stop()
    reference = max(network.peers, key=lambda p: p.ledger.height)
    assert all(tx_id in reference.receipts for tx_id in tx_ids)
    assert max_open <= 1
    assert all(not p.engine.core.decided for p in network.peers)


# -- schedule equivalence (hypothesis) -------------------------------------


def _committed_set(depth: int, seed: int, n_txs: int) -> set[str]:
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.25,
        latency=FixedLatency(0.02), max_block_txs=3, seed=seed,
        view_timeout=5.0, pipeline_depth=depth,
    )
    network.install_contract(KVContract)
    client = network.client()
    tx_ids = [
        client.invoke("kv", "put", {"key": f"k-{index}", "value": "v"}, wait=False)
        for index in range(n_txs)
    ]
    network.run_for(40.0)
    network.stop()
    reference = max(network.peers, key=lambda p: p.ledger.height)
    committed = {
        tx_id for tx_id in tx_ids
        if tx_id in reference.receipts and reference.receipts[tx_id].success
    }
    assert committed == set(tx_ids), "workload did not fully commit"
    return committed


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_txs=st.integers(min_value=4, max_value=12),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipelined_and_sequential_schedules_commit_the_same_set(seed, n_txs):
    """Pipelining is a latency optimization, not a semantic change: for
    the same seed and workload, depth 1 and depth 4 commit the identical
    transaction set, all successful."""
    assert _committed_set(1, seed, n_txs) == _committed_set(4, seed, n_txs)
