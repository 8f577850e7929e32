"""One commit path: every way a block becomes state gives the same answer.

A fixed sequence of endorsed blocks — holding an MVCC loser, a duplicate
of an already-valid tx in a later block, a tx with a bad endorsement, a
tx with a bad client signature, and a block of groups (one that commits,
one that loses MVCC as a whole, one member on its own) — is pushed through

(a) ``Peer.commit_block``,
(b) ``LocalChain._commit``,
(c) ``DurableStore`` / ``SQLiteStore`` recovery of (a)'s disk
    (snapshot+tail and full replay),
(d) a ``MemoryStore`` restart (replay of the in-memory chain),

and all of them must report identical validity vectors, receipts per tx
id (error strings included), state digest, and an index that matches a
ledger scan.  All four go through :mod:`repro.chain.commit`; this test is
what notices if one of them ever grows its own rules again.

An id names one copy: for every tx id — the one committed twice included
— ``Ledger.get_transaction``, ``explorer.describe_transaction``,
``ChainIndex.get``, the receipt and (sqlite) ``query_transactions`` give
the same ``(height, valid)``, live and after every kind of restart.

Also pinned here: a block that fails the ledger's linkage check must
leave the peer exactly as it was.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chain import BlockchainNetwork, LocalChain
from repro.chain.block import Block
from repro.chain.explorer import describe_transaction
from repro.errors import InvalidBlockError
from tests.conftest import CounterContract
from tests.conftest import peer_count

_ZERO_SIG = "00" * 64


def _network(storage: str = "memory", snapshot_interval: int = 64) -> BlockchainNetwork:
    """One PoA peer that is never run: blocks are committed by hand."""
    network = BlockchainNetwork(
        n_peers=1, consensus="poa", seed=5, storage=storage,
        snapshot_interval=snapshot_interval,
    )
    network.install_contract(CounterContract)
    return network


def _next_block(peer, txs) -> Block:
    return Block.build(
        peer.ledger.height + 1, peer.ledger.head.block_hash, 0.0, peer.node_id, txs
    )


@pytest.fixture(scope="module")
def sequence():
    """``(blocks, expected validity vectors, tx ids by role)``; built by
    committing on a scratch peer so later txs are endorsed against the
    state earlier blocks left behind."""
    network = _network()
    peer, client = network.peers[0], network.client()

    def endorsed():
        return network.endorse_transaction(client, "counter", "increment", {"amount": 1})

    winner, loser = endorsed(), endorsed()  # both read count at the same version
    blocks = [_next_block(peer, [winner, loser])]
    peer.commit_block(blocks[-1])

    fresh, to_forge, to_unsign = endorsed(), endorsed(), endorsed()
    forged = dataclasses.replace(
        to_forge,
        endorsements=tuple(
            dataclasses.replace(e, signature_hex=_ZERO_SIG) for e in to_forge.endorsements
        ),
    )
    unsigned = dataclasses.replace(to_unsign, signature_hex=_ZERO_SIG)
    blocks.append(_next_block(peer, [fresh, forged, unsigned]))
    peer.commit_block(blocks[-1])

    last = endorsed()
    blocks.append(_next_block(peer, [winner, last]))  # winner again: a duplicate
    peer.commit_block(blocks[-1])

    def endorsed_group():
        return network.endorse_group([(client, "counter", "increment", {"amount": 1})] * 2)

    # Both groups read count at the same version; the third loses a member.
    group, stale_group, (stray, _) = endorsed_group(), endorsed_group(), endorsed_group()
    blocks.append(_next_block(peer, [*group, *stale_group, stray]))
    peer.commit_block(blocks[-1])

    expected = [[True, False], [True, False, False], [False, True],
                [True, True, False, False, False]]
    roles = {"winner": winner.tx_id, "loser": loser.tx_id, "forged": forged.tx_id,
             "unsigned": unsigned.tx_id, "last": last.tx_id,
             "group": group[1].tx_id, "stale_group": stale_group[0].tx_id,
             "stray": stray.tx_id}
    return blocks, expected, roles


def _copy_named(ledger, receipts, index, tx_id):
    """The ``(height, valid)`` every by-id surface gives for *tx_id* — one answer."""
    committed, row = ledger.get_transaction(tx_id), index.get(tx_id)
    described, receipt = describe_transaction(ledger, tx_id), receipts[tx_id]
    answers = {
        "ledger": (committed.block_height, committed.valid),
        "explorer": (described["block_height"], described["valid"]),
        "index": (row.block_height, row.valid),
        "receipt": (receipt.block_height, receipt.success),
    }
    assert len(set(answers.values())) == 1, (tx_id, answers)
    return answers["ledger"]


def _observe(ledger, state, receipts, index):
    """Everything the paths must agree on."""
    return {
        "validity": [ledger.block_validity(h) for h in range(1, ledger.height + 1)],
        "receipts": {
            tx_id: (r.success, r.block_height, r.return_value, r.events, r.error)
            for tx_id, r in sorted(receipts.items())
        },
        "copy_named": {
            tx_id: _copy_named(ledger, receipts, index, tx_id) for tx_id in sorted(receipts)
        },
        "digest": state.state_digest(),
        "replayed_digest": ledger.replay_state().state_digest(),
        "index_problems": index.verify_against(ledger),
    }


def _observe_peer(peer):
    observed = _observe(peer.ledger, peer.state, peer.receipts, peer.index)
    if peer.store.kind == "sqlite":  # one row per id, and it names the same copy
        rows = peer.store.query_transactions(limit=100)
        assert {
            row["tx_id"]: (row["block_height"], row["valid"]) for row in rows
        } == observed["copy_named"]
    return observed


@pytest.fixture(scope="module")
def reference(sequence):
    """Path (a) on an in-memory peer — what every other path must equal."""
    blocks, expected, roles = sequence
    peer = _network().peers[0]
    for block in blocks:
        peer.commit_block(block)
    observed = _observe_peer(peer)
    assert observed["validity"] == expected
    assert observed["index_problems"] == []
    assert observed["replayed_digest"] == observed["digest"]
    by_role = {role: observed["receipts"][tx_id] for role, tx_id in roles.items()}
    # The duplicate's failure in block 3 did not downgrade the receipt,
    # and the id still names the valid copy everywhere it is looked up.
    assert by_role["winner"][:3] == (True, 1, 1)
    assert observed["copy_named"][roles["winner"]] == (1, True)
    assert observed["copy_named"][roles["loser"]] == (1, False)
    assert by_role["loser"][4] == "MVCC conflict: stale read set"
    assert "bad endorsement signature" in by_role["forged"][4]
    assert "bad signature" in by_role["unsigned"][4]
    assert by_role["last"][:3] == (True, 3, 3)
    # The second member of the group that committed read the first one's write.
    assert by_role["group"][:3] == (True, 4, 5)
    assert by_role["stale_group"][4].endswith("member 0: MVCC conflict: stale read set")
    assert by_role["stray"][4] == "group member outside its complete group"
    assert [peer_count(peer, f"peer.{name}") for name in (
        "mvcc_conflicts", "endorsement_failures", "signature_failures",
        "txs_committed_valid", "txs_committed_invalid")] == [4, 1, 1, 5, 7]
    groups = {c.labels.get("reason"): c.value for name in (
        "chain.groups_committed", "chain.groups_aborted") for c in peer.obs.counters(name)}
    assert groups == {None: 1, "mvcc": 1, "incomplete": 1}
    return observed


def test_local_chain_commits_like_a_peer(sequence, reference):
    blocks, _, _ = sequence
    chain = LocalChain()
    built = [chain._commit(list(block.transactions)) for block in blocks]
    assert _observe(chain.ledger, chain.state, chain.receipts, chain.index) == reference
    # _commit hands back the receipts of *this* block: the duplicate's is a failure.
    assert [[r.success for r in receipts] for receipts in built] == reference["validity"]


@pytest.mark.parametrize("storage", ["durable", "sqlite"])
@pytest.mark.parametrize("snapshot_interval,mode", [(2, "snapshot+tail"), (64, "full-replay")])
def test_store_recovery_replays_like_the_live_commit(
    sequence, reference, storage, snapshot_interval, mode
):
    blocks, _, _ = sequence
    peer = _network(storage, snapshot_interval).peers[0]
    for block in blocks:
        peer.commit_block(block)
    assert _observe_peer(peer) == reference
    peer.restart()
    assert peer.store.last_recovery.mode == mode
    assert peer.store.last_recovery.degradations == []
    assert _observe_peer(peer) == reference


def test_memory_restart_replays_like_the_live_commit(sequence, reference):
    blocks, _, _ = sequence
    peer = _network().peers[0]
    for block in blocks:
        peer.commit_block(block)
    peer.restart()
    # The kept ledger records verdicts and reasons: the restart is exact.
    assert _observe_peer(peer) == reference


def test_rejected_block_leaves_the_peer_untouched(sequence):
    """``Ledger.append``'s checks run before the first mutation."""
    blocks, _, _ = sequence
    network = _network()
    peer = network.peers[0]
    peer.commit_block(blocks[0])

    def fingerprint():
        counters = ("peer.txs_committed_valid", "peer.txs_committed_invalid",
                    "peer.mvcc_conflicts", "peer.blocks_committed")
        return (
            peer.state.state_digest(), dict(peer.receipts), peer.ledger.height,
            peer.index.height, len(peer.index),
            {name: peer_count(peer, name) for name in counters},
            peer.obs.histogram("phase.commit_latency", peer=peer.node_id).count,
        )

    before = fingerprint()
    tx = network.endorse_transaction(network.client(), "counter", "increment", {"amount": 1})
    for bad in (
        Block.build(2, "ab" * 32, 0.0, peer.node_id, [tx]),                    # wrong prev_hash
        Block.build(3, peer.ledger.head.block_hash, 0.0, peer.node_id, [tx]),  # height gap
        dataclasses.replace(_next_block(peer, [tx]), timestamp=9.0),           # header tampered
    ):
        with pytest.raises(InvalidBlockError):
            peer.commit_block(bad)
        assert fingerprint() == before
    peer.commit_block(_next_block(peer, [tx]))
    assert peer.receipts[tx.tx_id].success and peer.ledger.height == 2


# -- receipts are a view: the ledger's binding rule is the stored-dict rule ----

_KEYS = ("k0", "k1")


@pytest.fixture(scope="module")
def pool():
    """Signed, endorsed transactions whose verdict depends only on when
    they are committed: blind writes (always valid, so two copies are both
    valid) and writes that read one key at a fixed version (a key's
    version is the count of valid txs when it was last written: stale
    until the chain gets there, valid then, stale again after the next
    write — failed→valid and valid→failed duplicates)."""
    import random

    from repro.chain.transaction import Endorsement, Transaction, rwset_digest
    from repro.crypto import KeyPair

    client, endorser = (KeyPair.generate(random.Random(seed)) for seed in (1, 2))
    read_sets = [{}, {}] + [{key: version} for key in _KEYS for version in (1, 2, 3)]
    txs = []
    for nonce, read_set in enumerate(read_sets):
        write_set = {_KEYS[nonce % 2]: nonce}
        tx = Transaction.create(client, "counter", "increment", {"n": nonce}, nonce=nonce)
        endorsement = Endorsement.create(
            endorser, "peer-0", tx.tx_id, rwset_digest(read_set, write_set))
        txs.append(tx.with_execution(
            read_set=read_set, write_set=write_set, events=({"kind": "wrote", "n": nonce},),
            return_value=nonce, endorsements=(endorsement,)))
    return txs


def _stored_receipts(blocks):
    """What the stored receipt dict held for *blocks* (lists of pool txs,
    heights 1..n): MVCC modelled on key versions, and the rule the commit
    path applied to its dict — ``existing is None or verdict or not
    existing.success``."""
    from repro.chain.transaction import TxReceipt

    versions, seq, receipts = dict.fromkeys(_KEYS, "never written"), 0, {}
    for height, txs in enumerate(blocks, start=1):
        for tx in txs:
            verdict = all(versions[key] == read for key, read in tx.read_set.items())
            if verdict:
                seq += 1
                versions.update(dict.fromkeys(tx.write_set, seq))
            existing = receipts.get(tx.tx_id)
            if existing is None or verdict or not existing.success:
                receipts[tx.tx_id] = TxReceipt(
                    tx_id=tx.tx_id, block_height=height, success=verdict,
                    return_value=tx.return_value if verdict else None,
                    events=tx.events if verdict else (),
                    error=None if verdict else "MVCC conflict: stale read set")
    return receipts


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    picks=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=6),
    snapshot_interval=st.integers(1, 7),
)
# pool[0] blind-writes k0; pool[2] reads k0 at version 1 (and writes it).
@example(picks=[[0], [2], [2]], snapshot_interval=2)       # valid, then a failed duplicate
@example(picks=[[2], [0], [2]], snapshot_interval=1)       # failed, then valid
@example(picks=[[0], [0, 0]], snapshot_interval=1)         # valid blind writes, one block too
@example(picks=[[2], [0], [2], [2]], snapshot_interval=3)  # three copies: failed, valid, failed
@example(picks=[[0, 2, 2, 2]], snapshot_interval=1)        # ... within one block
def test_receipts_view_equals_the_stored_receipt_dict(pool, picks, snapshot_interval):
    """For any block sequence — ids repeated across and within blocks, in
    any verdict order — ``dict(receipts)`` on a LocalChain, on a peer of
    each backend, and after that peer's restart (memory, full replay,
    snapshot+tail) is the dict the commit path used to keep; the index and
    the SQL row name the same copy."""
    blocks = [[pool[pick] for pick in block] for block in picks]
    want = _stored_receipts(blocks)
    copy_named = {tx_id: (r.block_height, r.success) for tx_id, r in want.items()}

    chain = LocalChain()
    for txs in blocks:
        chain._commit(txs)
    assert dict(chain.receipts) == want

    for storage in ("memory", "durable", "sqlite"):
        peer = _network(storage, snapshot_interval).peers[0]
        for txs in blocks:
            peer.commit_block(_next_block(peer, txs))
        for restarted in (False, True):
            if restarted:
                peer.restart()
            assert dict(peer.receipts) == want, (storage, restarted)
            rows = [peer.index.get(tx_id) for tx_id in want]
            assert {row.tx_id: (row.block_height, row.valid) for row in rows} == copy_named
            if storage == "sqlite":
                assert {
                    row["tx_id"]: (row["block_height"], row["valid"])
                    for row in peer.store.query_transactions(limit=100)
                } == copy_named
