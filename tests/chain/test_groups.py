"""A group of transactions is one unit: endorsed once, ordered once, judged once.

What the unit has to survive is spelled out test by test — gossip that
reorders entries, a block with too little room, a deposed primary, a torn
WAL tail and an image restart, a primary or entry peer that tampers with
the run — and one hypothesis property states the guarantee itself: per
group the verdicts are all true or all false, and the same on every peer.
The golden test at the end pins that a transaction *outside* any group has
the bytes it had before groups existed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain import BlockchainNetwork, Contract, InvariantAuditor, contract_method
from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.peer import Admission
from repro.chain.store.codec import decode_record, encode_record, inflate
from repro.chain.transaction import (
    Endorsement, Transaction, create_group, endorsed_digest, unit_message)
from repro.crypto import KeyPair
from repro.errors import ChainError, ContractError
from repro.simnet import FailureSchedule, FixedLatency, UniformLatency
from repro.simnet.network import estimate_payload_size
from tests.conftest import CounterContract
from tests.conftest import peer_count


class KVContract(Contract):
    """Disjoint-key writes plus one read-then-write entry point."""

    name = "kv"

    @contract_method
    def put(self, ctx, key: str, value: str):
        ctx.put(key, value)
        return True

    @contract_method
    def append(self, ctx, key: str, value: str):
        """Needs the key to exist: inside a group only an earlier member's
        write can satisfy it on a fresh key."""
        held = ctx.get(key)
        ctx.require(held is not None, f"no key {key}")
        ctx.put(key, held + value)
        return held + value


def _network(**overrides) -> BlockchainNetwork:
    params = dict(n_peers=4, consensus="pbft", block_interval=0.5,
                  latency=FixedLatency(0.02), seed=5, view_timeout=5.0)
    params.update(overrides)
    network = BlockchainNetwork(**params)
    network.install_contract(CounterContract)
    network.install_contract(KVContract)
    return network


def _kv_group(network, client, key: str, size: int = 3):
    """put(key) then size-1 appends: every member after the first reads
    what the one before it wrote."""
    steps = [(client, "kv", "put", {"key": key, "value": "0"})] + [
        (client, "kv", "append", {"key": key, "value": str(i)}) for i in range(1, size)]
    return network.endorse_group(steps)


def _counter_group(network, client, size: int = 2):
    return network.endorse_group([(client, "counter", "increment", {"amount": 1})] * size)


def _unit_key(txs) -> str:
    """What names a unit on the ledger: its root, or for a unit of one its id."""
    return txs[0].endorsed_id


def _group_verdicts(ledger) -> dict[str, list[tuple[int, int, int, bool, str | None]]]:
    """unit key -> [(height, tx index, position in the unit, valid, error)] in
    chain order (an untagged transaction is position 0 of a unit of one)."""
    out: dict[str, list] = {}
    for committed in ledger.transactions(valid_only=False):
        tag = committed.transaction.group or (committed.transaction.tx_id, 0, 1)
        error = ledger.receipt_at(committed.block_height, committed.tx_index).error
        out.setdefault(tag[0], []).append(
            (committed.block_height, committed.tx_index, tag[1], committed.valid, error))
    return out


def _assert_whole(verdicts, root: str, size: int, valid: bool = True) -> None:
    members = verdicts[root]
    assert [m[2] for m in members] == list(range(size))            # all there, in order
    assert len({m[0] for m in members}) == 1                       # one block
    assert [m[1] for m in members] == list(range(members[0][1], members[0][1] + size))
    assert [m[3] for m in members] == [valid] * size


# -- endorsed once ----------------------------------------------------------


def test_members_read_their_predecessors_writes_and_one_endorser_signs_once():
    network = _network()
    txs = _kv_group(network, network.client(), "k", size=3)
    root = txs[0].group[0]
    assert [tx.group for tx in txs] == [(root, 0, 3), (root, 1, 3), (root, 2, 3)]
    assert [tx.return_value for tx in txs] == [True, "01", "012"]
    # What an earlier member wrote is not a read of the world outside the group.
    assert [tx.read_set for tx in txs] == [{}, {}, {}]
    assert [len(tx.endorsements) for tx in txs] == [1, 0, 0]
    assert txs[0].endorsements[0].verify(root, network.directory["peer-0"]) and len({tx.tx_id for tx in txs}) == 3
    assert all(tx.verify_signature() for tx in txs)
    # On its own the second step has nothing to append to: it aborts.
    with pytest.raises(ContractError, match="no key solo"):
        network.endorse_transaction(network.client(), "kv", "append",
                                    {"key": "solo", "value": "1"})


def test_an_abort_in_any_step_surfaces_before_anything_is_submitted():
    network = _network()
    client = network.client()
    with pytest.raises(ContractError, match="deliberate failure"):
        network.endorse_group([
            (client, "counter", "increment", {"amount": 1}),
            (client, "counter", "fail", {}),
            (client, "counter", "increment", {"amount": 1}),
        ])
    assert all(len(peer.mempool) == 0 for peer in network.peers)
    network.run_for(2.0)
    assert network.committed_heights() == {peer.node_id: 0 for peer in network.peers}


def test_a_policy_requiring_two_endorsers_gets_two_signatures_over_the_group():
    from repro.chain.contracts import EndorsementPolicy

    network = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.5,
                                latency=FixedLatency(0.02), seed=5)
    network.install_contract(KVContract)
    network.install_contract(CounterContract, policy=EndorsementPolicy(required=2))
    client = network.client()
    txs = network.endorse_group([
        (client, "kv", "put", {"key": "k", "value": "0"}),       # default policy: 1
        (client, "counter", "increment", {"amount": 1}),         # needs 2
    ])
    assert len(txs[0].endorsements) == 2 and txs[1].endorsements == ()
    network.submit(*txs)
    assert all(network.wait_for_receipt(tx.tx_id).success for tx in txs)
    network.run_for(1.0)  # every endorser applies the block before the next proposal
    # One signature short of the stricter member's policy: the whole group fails.
    short = network.endorse_group([
        (client, "kv", "put", {"key": "k2", "value": "0"}),
        (client, "counter", "increment", {"amount": 1}),
    ])
    short = (dataclasses.replace(short[0], endorsements=short[0].endorsements[:1]), short[1])
    network.submit(*short)
    receipts = [network.wait_for_receipt(tx.tx_id) for tx in short]
    assert [r.success for r in receipts] == [False, False]
    assert all("member 1" in r.error and "policy requires 2" in r.error for r in receipts)
    network.run_for(2.0)
    network.stop()
    assert network.obs.total("chain.groups_aborted") == 4  # reason=endorsement, on 4 peers


# -- ordered once: the mempool entry ----------------------------------------


def _signed_group(size: int, tag: str) -> tuple[Transaction, ...]:
    keypair = KeyPair.generate(random.Random(tag))
    return create_group(
        [(keypair, "kv", "put", {"key": f"{tag}-{i}", "value": "v"}, i + 1)
         for i in range(size)], 0.0)


def _signed_single(tag: str) -> Transaction:
    return Transaction.create(KeyPair.generate(random.Random(tag)), "kv", "put",
                              {"key": tag, "value": "v"}, nonce=1)


def test_mempool_admits_takes_and_requeues_a_group_as_one_entry():
    pool = Mempool(capacity=6)
    singles = [_signed_single(f"s{i}") for i in range(3)]
    group, late = _signed_group(4, "g"), _signed_group(2, "late")
    for tx in singles:
        assert pool.add(tx)
    assert not pool.add(*group) and pool.rejected_full == 1 and len(pool) == 3  # 3 + 4 > 6
    pool.capacity = 100
    assert pool.add(*group) and pool.add(*late)
    assert not pool.add(group[2], _signed_single("x")) and pool.rejected_duplicate == 1
    assert len(pool) == 9 and "x" not in [tx.args["key"] for tx in pool.snapshot()]

    # Room for five: the three singles go, the group of four waits — whole.
    assert pool.take(5) == singles
    assert pool.take(5) == list(group)          # ... and leads the next batch
    assert all(tx.tx_id in pool for tx in group)  # reserved
    # The proposal died: the group returns to the front, in order.
    pool.requeue(group)
    assert pool.snapshot() == [*group, *late]
    assert pool.take(3) == []                   # still never split
    assert pool.take(4) == list(group)
    # A stray commit took one member away: what is left is not a group any
    # more and goes out one by one (the commit path judges it invalid).
    pool.remove([late[0].tx_id])
    assert pool.take(1) == [late[1]]


def test_interleaved_gossip_never_splits_a_group():
    """Entries race each other over ``UniformLatency`` links from
    different entry peers; a group still occupies consecutive positions of
    one block, in order, on every peer."""
    network = _network(latency=UniformLatency(0.01, 0.08), seed=9, block_interval=0.25)
    auditor = InvariantAuditor(network)
    clients = [network.client() for _ in range(3)]
    groups = []
    for wave in range(4):
        for lane, client in enumerate(clients):
            txs = _kv_group(network, client, f"w{wave}-l{lane}", size=2 + lane)
            network.submit(*txs)
            groups.append(txs)
            network.submit(network.endorse_transaction(
                client, "kv", "put", {"key": f"single-{wave}-{lane}", "value": "v"}))
            network.run_for(0.01)
    network.run_for(15.0)
    network.stop()
    reference = _group_verdicts(network.peers[0].ledger)
    for peer in network.peers:
        verdicts = _group_verdicts(peer.ledger)
        assert verdicts == reference
        for txs in groups:
            _assert_whole(verdicts, txs[0].group[0], len(txs))
    assert any(len(block) > len(txs) for block in network.peers[0].ledger.blocks()
               for txs in groups[:1]), "no block ever held a group beside other entries"
    assert auditor.final_check() == []
    assert network.obs.total("chain.groups_committed") == 4 * len(groups)


def test_a_group_waits_for_a_block_with_room_and_an_oversized_one_is_refused():
    network = _network(max_block_txs=5)
    client = network.client()
    primary = network.peers[0]
    singles = [network.endorse_transaction(client, "kv", "put", {"key": f"s{i}", "value": "v"})
               for i in range(3)]
    group = _kv_group(network, client, "g", size=4)
    follower = _kv_group(network, client, "h", size=2)
    for tx in singles:
        assert primary.submit(tx) is Admission.ADMITTED
    assert primary.submit(*group) is Admission.ADMITTED
    assert primary.submit(*follower) is Admission.ADMITTED
    network.run_for(6.0)
    heights = {tx.tx_id: primary.ledger.get_transaction(tx.tx_id).block_height
               for tx in [*singles, *group, *follower]}
    first = heights[singles[0].tx_id]
    assert {heights[tx.tx_id] for tx in singles} == {first}
    assert {heights[tx.tx_id] for tx in group} == {first + 1}      # 3 + 4 > 5: next block
    assert {heights[tx.tx_id] for tx in follower} == {first + 2}   # 4 + 2 > 5: FIFO kept
    assert len(primary.ledger.block(first)) == 3
    assert network.obs.total("mempool.group_deferrals") == 2

    too_big = _kv_group(network, client, "big", size=6)
    assert primary.submit(*too_big) is Admission.OVERSIZED
    assert not Admission.OVERSIZED.accepted
    with pytest.raises(ChainError, match="oversized"):
        network.submit(*too_big)
    assert all(tx.tx_id not in peer.mempool for peer in network.peers for tx in too_big)
    network.stop()


def test_a_tagged_transaction_is_admitted_only_as_its_whole_group():
    network = _network()
    peer = network.peers[1]
    group = _kv_group(network, network.client(), "g", size=3)
    assert peer.submit(group[1]) is Admission.INVALID                    # a member alone
    assert peer.submit(*group[:2]) is Admission.INVALID             # one dropped
    assert peer.submit(group[1], group[0], group[2]) is Admission.INVALID
    retagged = dataclasses.replace(group[2], group=(group[2].group[0], 1, 3))
    assert peer.submit(group[0], group[1], retagged) is Admission.INVALID
    assert len(peer.mempool) == 0
    assert peer.submit(*group) is Admission.ADMITTED
    assert peer.submit(*group) is Admission.DUPLICATE
    network.run_for(3.0)
    assert peer.submit(*group) is Admission.COMMITTED
    network.stop()


def test_a_deposed_primary_requeues_the_group_whole():
    network = _network(max_block_txs=8, pipeline_depth=2, view_timeout=2.0, seed=11)
    auditor = InvariantAuditor(network)
    client = network.client()
    primary = network.peers[0]
    # One entry every replica holds, so all of them notice the stall.
    network.submit(*_kv_group(network, client, "everywhere", size=2))
    network.run_for(0.3)
    # 2|2 split: the primary proposes, nothing reaches a quorum, it is
    # deposed; its half of the network is all that hears of the groups.
    network.net.partition({"peer-0", "peer-1"})
    groups = [_kv_group(network, client, f"g{i}", size=3) for i in range(2)]
    for txs in groups:
        assert primary.submit(*txs) is Admission.ADMITTED
        for tx in txs:
            auditor.track_tx(tx.tx_id)
    network.run_for(8.0)
    taken = [state.block for state in primary.engine.core.rounds.values() if state.block]
    assert any(tx.group for block in taken for tx in block.transactions)
    assert all(tx.tx_id in primary.mempool for txs in groups for tx in txs)
    network.net.heal()
    network.run_for(30.0)
    network.stop()
    assert primary.engine.view >= 1, "primary was never deposed"
    for peer in network.peers:
        verdicts = _group_verdicts(peer.ledger)
        for txs in groups:
            _assert_whole(verdicts, txs[0].group[0], 3)
    assert auditor.final_check() == []


# -- validated once, identically, however the block arrives -------------------


@pytest.mark.parametrize("storage", ["durable", "sqlite"])
def test_torn_tail_sync_and_image_restart_replay_the_same_verdicts(storage):
    """A follower loses its WAL tail in a crash, fetches the grouped
    blocks it missed by sync, and every peer is then restarted from its
    store: live commit, synced batch, WAL replay and image + tail all
    give each member the verdict the first commit gave it."""
    network = _network(storage=storage, snapshot_interval=3, block_interval=0.25,
                       latency=UniformLatency(0.01, 0.04), seed=13, view_timeout=4.0)
    auditor = InvariantAuditor(network)
    schedule = FailureSchedule(network.sim, network.net)
    victim = network.peers[2]
    schedule.torn_write_at(3.9, victim.node_id)
    schedule.crash_at(4.0, victim.node_id)
    schedule.restart_at(9.0, victim.node_id)
    client, groups = network.client(), []
    for round_index in range(10):
        # Two groups endorsed over one state: the second one ordered loses
        # MVCC as a whole.
        pair = [_counter_group(network, client, size=2 + round_index % 2) for _ in range(2)]
        for txs in pair:
            network.submit(*txs)
            groups.append(txs)
        network.run_for(1.0)
    network.run_for(20.0)
    network.stop()
    assert victim.store.last_recovery.degradations, "the torn write cost nothing"
    assert peer_count(victim, "sync.blocks_synced") > 0
    reference = _group_verdicts(network.peers[0].ledger)
    for txs in groups:
        members = reference[txs[0].group[0]]
        assert len(members) == len(txs) and len({m[3] for m in members}) == 1
    assert {m[3] for members in reference.values() for m in members} == {True, False}
    assert all(_group_verdicts(peer.ledger) == reference for peer in network.peers)
    digests = {peer.state.state_digest() for peer in network.peers}
    for peer in network.peers:
        peer.restart()
        assert peer.store.last_recovery.mode == "snapshot+tail"
        assert _group_verdicts(peer.ledger) == reference
    assert {peer.state.state_digest() for peer in network.peers} == digests and len(digests) == 1
    assert auditor.final_check(failures=schedule.log) == []
    aborted = sum(1 for members in reference.values() if not members[0][3])
    assert network.obs.total("chain.groups_aborted") >= 3 * aborted  # reason=mvcc


def _tamper(kind: str, group, other):
    """What a Byzantine primary might order instead of ``[*group]``."""
    a, b, c = group
    return {
        "drop": [a, c],
        "reorder": [b, a, c],
        "duplicate": [a, b, b, c],
        "splice": [a, b, other[0], c],
        "foreign-member": [a, other[1], c],
        "alone": [b],
        "edited-tag": [a, b, dataclasses.replace(c, group=(c.group[0], 2, 4))],
        "edited-args": [a, dataclasses.replace(b, args={**b.args, "value": "x"}), c],
        "swapped-rwset": [a, dataclasses.replace(b, write_set={"k": "forged"}), c],
        "stripped-endorsement": [dataclasses.replace(a, endorsements=()), b, c],
    }[kind]


@pytest.mark.parametrize("kind", [
    "drop", "reorder", "duplicate", "splice", "foreign-member", "alone", "edited-tag",
    "edited-args", "swapped-rwset", "stripped-endorsement"])
def test_a_tampered_run_is_invalid_identically_on_every_peer(kind):
    """The block is whatever consensus decided (``_accept_pre_prepare``
    knows nothing of groups); the commit path judges the run."""
    network = _network(consensus="poa")      # never run: blocks are committed by hand
    auditor = InvariantAuditor(network)
    client = network.client()
    group, other = (_kv_group(network, client, key, size=3) for key in ("k", "other"))
    ordered = _tamper(kind, group, other)
    reference = network.peers[0]
    block = Block.build(1, reference.ledger.head.block_hash, 0.0, reference.node_id, ordered)
    for peer in network.peers:
        peer.commit_block(block)
    verdicts = [peer.ledger.block_validity(1) for peer in network.peers]
    errors = [[peer.ledger.receipt_at(1, i).error for i in range(len(ordered))]
              for peer in network.peers]
    assert verdicts == [[False] * len(ordered)] * 4
    assert errors == [errors[0]] * 4 and None not in errors[0]
    assert len({peer.state.state_digest() for peer in network.peers}) == 1
    assert reference.state.get("k") is None
    auditor.check_groups()
    # The same steps, endorsed afresh and ordered honestly, commit.
    fresh = _kv_group(network, client, "k", size=3)
    block = Block.build(2, reference.ledger.head.block_hash, 0.0, reference.node_id, fresh)
    for peer in network.peers:
        peer.commit_block(block)
        assert peer.ledger.block_validity(2) == [True] * 3
    assert reference.state.get("k") == "012"
    assert auditor.violations == []


def test_a_stray_copy_before_the_complete_run_does_not_take_the_run_down():
    """``[a, a, b, c]``: the first ``a`` begins no complete run and is
    invalid on its own; the run that follows is whole.  The id names the
    valid copy."""
    network = _network(consensus="poa")
    auditor = InvariantAuditor(network)
    a, b, c = _kv_group(network, network.client(), "k", size=3)
    peer = network.peers[0]
    peer.commit_block(Block.build(1, peer.ledger.head.block_hash, 0.0, peer.node_id,
                                  [a, a, b, c]))
    assert peer.ledger.block_validity(1) == [False, True, True, True]
    assert peer.ledger.receipt(a.tx_id).success
    auditor.check_groups()
    assert auditor.violations == []


def test_the_auditor_notices_a_valid_member_without_its_siblings():
    """The invariant itself, on a ledger forged past the commit path."""
    network = _network(consensus="poa")
    auditor = InvariantAuditor(network, strict=False)
    a, b, c = _kv_group(network, network.client(), "k", size=3)
    peer = network.peers[0]
    block = Block.build(1, peer.ledger.head.block_hash, 0.0, peer.node_id, [a, b, c])
    peer.ledger.append(block, [True, True, False])
    auditor.check_groups()
    assert [v.invariant for v in auditor.violations] == ["group"]
    assert network.obs.total("audit.violations") == 1


def test_an_equivocating_primary_decides_the_group_all_or_nothing():
    """The byzantine primary of the harness sends the batch to one half
    and the batch *reversed* to the other; whichever block wins, honest
    peers agree on one verdict per group."""
    network = _network(byzantine_peers={"peer-0"}, view_timeout=3.0, seed=3)
    auditor = InvariantAuditor(network)
    client = network.client()
    groups = [_kv_group(network, client, f"g{i}", size=3) for i in range(2)]
    for txs in groups:
        assert network.peers[0].submit(*txs) is Admission.ADMITTED
    network.run_for(30.0)
    network.stop()
    honest = network.peers[1:]
    reference = _group_verdicts(honest[0].ledger)
    assert all(_group_verdicts(peer.ledger) == reference for peer in honest)
    for txs in groups:
        members = reference[txs[0].group[0]]
        assert len({m[3] for m in members}) == 1 and len({m[0] for m in members}) == 1
    assert auditor.final_check() == []


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_verdicts_are_all_or_nothing_per_group_and_equal_across_peers(data):
    """Random interleavings of unit endorsements (one to four steps: a
    unit of one is an untagged transaction and takes the same path), a
    conflicting writer's endorsements and blocks — ordered honestly
    (entries shuffled, groups whole) or by a primary that permutes
    transactions at will."""
    network = _network(consensus="poa")
    auditor = InvariantAuditor(network)
    client, writer = network.client(), network.client()
    pending: list[tuple[Transaction, ...]] = []
    groups: list[tuple[Transaction, ...]] = []
    for step in data.draw(st.lists(st.sampled_from("GGWC"), min_size=3, max_size=10)) + ["C"]:
        if step == "G":
            txs = _counter_group(network, client, size=data.draw(st.integers(1, 4)))
            assert (txs[0].group is None) == (len(txs) == 1)
            pending.append(txs)
            groups.append(txs)
        elif step == "W":  # the conflicting writer: one increment on its own
            pending.append((network.endorse_transaction(
                writer, "counter", "increment", {"amount": 1}),))
        elif pending:
            entries = data.draw(st.permutations(pending))
            ordered = [tx for entry in entries for tx in entry]
            if data.draw(st.booleans()):
                ordered = data.draw(st.permutations(ordered))
            head = network.peers[0].ledger.head
            block = Block.build(head.height + 1, head.block_hash, 0.0, "peer-0", ordered)
            for peer in network.peers:
                peer.commit_block(block)
            pending.clear()
    reference = _group_verdicts(network.peers[0].ledger)
    assert all(_group_verdicts(peer.ledger) == reference for peer in network.peers)
    for txs in groups:
        members = reference[_unit_key(txs)]
        assert len(members) == len(txs)
        assert len({m[3] for m in members}) == 1, members
        if members[0][3]:
            _assert_whole(reference, _unit_key(txs), len(txs))
        elif len(txs) == 1:  # a unit of one fails with the bare message
            assert not members[0][4].startswith("group ")
    assert len({peer.state.state_digest() for peer in network.peers}) == 1
    auditor.check_groups()
    assert auditor.violations == []


# -- outside a group nothing moved ---------------------------------------------


def test_an_ungrouped_transaction_has_the_bytes_it_had_before_groups():
    """Signing payload, tx id, signature, wire size and WAL record of a
    transaction on its own, computed on the parent commit (3e7cf25)."""
    client, endorser = (KeyPair.generate(random.Random(seed)) for seed in (1, 2))
    tx = Transaction.create(
        client, "supplychain", "record_node",
        {"article_id": "a-1", "parents": ["p"], "degree": 0.25}, nonce=7, timestamp=1.5)
    read_set = {"scnode:a-1": -1, "id:x": 3}
    write_set = {"scnode:a-1": {"author": "x", "parents": ["p"]}}
    events = ({"kind": "supply-node-recorded", "article_id": "a-1"},)
    endorsement = Endorsement.create(
        endorser, "peer-0", tx.tx_id, endorsed_digest(read_set, write_set, events, {"ok": True}))
    tx = tx.with_execution(read_set, write_set, events, {"ok": True}, (endorsement,))
    block = Block.build(1, "ab" * 32, 2.0, "peer-0", [tx])
    record = inflate(encode_record(block, [True], [None], None))  # the JSON the WAL deflates
    golden = "c38888eb12973eee233efa7cedb7780d2ea3d8077da017b45fb0509d2ff2c925"
    assert tx.group is None and tx.endorsed_id == tx.tx_id == golden
    assert hashlib.sha256(tx.signature_item()[1]).hexdigest() == golden
    assert tx.signature_hex[:32] == "195050126e40456e8d4b301d62730f41"
    # Sizes and record moved once more when the endorsement stopped
    # carrying its peer's key (the committing peer's directory names it):
    # 64 hex characters and one node on the wire, 84 bytes of record JSON.
    assert (tx.wire_size(), estimate_payload_size(tx), estimate_payload_size(block)) == (
        (667, 44), 667, 881)
    # The record's hash moved once before, when a block's Merkle leaf
    # became the endorsed transaction (digest over reads, writes, events
    # and return value); its length did not.
    assert (len(record), hashlib.sha256(record).hexdigest()) == (
        1305, "893635be939c2aa24a54d808c31e1ae81cdc703fcfa4ab093ce2a319477e5d70")
    assert b"group" not in record
    # A member's tag is in the proposal its id hashes and survives the WAL,
    # as a tuple.  Its signer signs the group's root once, so since members
    # stopped signing their own proposals the signed bytes are the root's.
    member = _signed_group(2, "g")[1]
    assert b'"group":["' in member._proposal()
    assert member.signature_item()[1] == unit_message(member.group[0])
    logged = encode_record(Block.build(1, "ab" * 32, 2.0, "peer-0", [member]), [False])
    assert decode_record(logged)[0].transactions[0] == member
