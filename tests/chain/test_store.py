"""Unit tests for the durable storage engine (:mod:`repro.chain.store`).

Covers the pieces bottom-up: the fault-injectable :class:`SimDisk`
crash semantics, the checksummed length-prefixed block log and its
scan/truncate behaviour, the codec round trip, the snapshot fallback
ladder, and the :class:`DurableStore` end-to-end build → crash →
recover cycle, including the acked-write reconciliation that backs the
auditor's storage-durability invariant.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.chain.block import Block, make_genesis_block
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.store import (
    DurableStore,
    MemoryStore,
    SQLiteStore,
    decode_record,
    encode_record,
    inspect_disk,
    list_snapshots,
    load_snapshot,
    render_inspection,
    scan_log_bytes,
    write_snapshot,
)
from repro.chain.store.codec import encode_obj
from repro.chain.store.log import BlockLog
from repro.chain.store.snapshots import SNAPSHOT_MAGIC, frame, snapshot_name, unframe
from repro.chain.store.sqlite import IMAGE_MAGIC
from repro.chain.transaction import Transaction
from repro.crypto import KeyPair
from repro.obs import MetricsRegistry
from repro.simnet.disk import SimDisk


@pytest.fixture
def keypair():
    return KeyPair.generate(random.Random(0))


#: Backend-agnostic contract tests run against both durable backends —
#: SQLiteStore must honour every recovery-ladder promise DurableStore
#: makes (same log, different snapshot media).
@pytest.fixture(params=["durable", "sqlite"])
def store_cls(request):
    return {"durable": DurableStore, "sqlite": SQLiteStore}[request.param]


def _tx(keypair, nonce):
    tx = Transaction.create(keypair, "counter", "increment", {"n": nonce}, nonce=nonce)
    return tx.with_execution(
        read_set={}, write_set={f"counter/{nonce % 3}": nonce},
        events=({"kind": "bump", "n": nonce},), return_value=nonce,
        endorsements=(),
    )


def _build_chain(keypair, n_blocks, txs_per_block=2):
    """A ledger + matching (block, validity, errors) commit sequence."""
    ledger = Ledger()
    commits = []
    nonce = 0
    for height in range(1, n_blocks + 1):
        txs = []
        for _ in range(txs_per_block):
            txs.append(_tx(keypair, nonce))
            nonce += 1
        block = Block.build(height, ledger.head.block_hash, float(height), "peer-0", txs)
        validity = [tx.nonce % 5 != 3 for tx in txs]
        errors = [None if ok else "MVCC conflict: stale read set" for ok in validity]
        ledger.append(block, validity, errors)
        commits.append((block, validity, errors))
    return ledger, commits


def _populate(store, commits, snapshots=False):
    """Replay *commits* through the store as a live peer would: log each
    block, apply its writes, and (with *snapshots*) offer the store a
    snapshot after every commit against an incrementally-grown ledger."""
    state = WorldState()
    ledger = Ledger() if snapshots else None
    for block, validity, errors in commits:
        store.on_commit(block, validity, proof=None, errors=errors)
        for index, tx in enumerate(block.transactions):
            if validity[index]:
                state.apply_write_set(tx.write_set)
        if ledger is not None:
            ledger.append(block, validity, errors)
            store.maybe_snapshot(ledger, state)
    return state


# -- SimDisk crash semantics ----------------------------------------------


def test_simdisk_pending_bytes_die_on_crash():
    disk = SimDisk("n0")
    disk.append("f", b"durable")
    disk.fsync("f")
    disk.append("f", b"pending")
    assert disk.read("f") == b"durable"  # reads only see durable bytes
    disk.on_crash()
    assert disk.read("f") == b"durable"
    disk.append("f", b"more")
    disk.fsync("f")
    assert disk.read("f") == b"durablemore"


def test_simdisk_partial_flush_rolls_back_fsynced_generations():
    disk = SimDisk("n0")
    disk.set_role("f", "log")
    for chunk in (b"aa", b"bb", b"cc", b"dd"):
        disk.append("f", chunk)
        disk.fsync("f")
    disk.arm_partial_flush(k=2)
    faults = disk.on_crash()
    assert [f.kind for f in faults] == ["partial-flush"]
    # The last two *acknowledged* fsync generations vanished.
    assert disk.read("f") == b"aabb"


def test_simdisk_torn_write_keeps_random_prefix_of_last_generation():
    disk = SimDisk("n0", rng=random.Random(1))
    disk.set_role("f", "log")
    disk.append("f", b"x" * 10)
    disk.fsync("f")
    disk.append("f", b"y" * 100)
    disk.fsync("f")
    disk.arm_torn_write()
    faults = disk.on_crash()
    assert [f.kind for f in faults] == ["torn-write"]
    data = disk.read("f")
    assert data.startswith(b"x" * 10)  # older generations untouched
    assert 10 <= len(data) < 110  # last generation survives only partially


def test_simdisk_bitflip_corrupts_one_durable_byte():
    disk = SimDisk("n0", rng=random.Random(2))
    disk.set_role("f", "log")
    disk.append("f", b"\x00" * 64)
    disk.fsync("f")
    assert disk.corrupt(role="log") == "f"
    data = disk.read("f")
    assert len(data) == 64 and data != b"\x00" * 64
    assert sum(bin(b).count("1") for b in data) == 1  # exactly one bit


def test_simdisk_truncate_discards_marks_and_pending():
    disk = SimDisk("n0")
    disk.append("f", b"abcdef")
    disk.fsync("f")
    disk.append("f", b"zz")
    disk.truncate("f", 3)
    assert disk.read("f") == b"abc"
    disk.append("f", b"XY")
    disk.fsync("f")
    assert disk.read("f") == b"abcXY"


# -- block log framing ------------------------------------------------------


def test_log_roundtrip_and_scan(keypair):
    disk = SimDisk("n0")
    log = BlockLog(disk)
    payloads = [f"payload-{i}".encode() for i in range(1, 4)]
    for height, payload in enumerate(payloads, start=1):
        log.append(height, payload)
    scan = log.scan()
    assert scan.failure is None
    assert [r.height for r in scan.records] == [1, 2, 3]
    assert [r.payload for r in scan.records] == payloads
    assert scan.valid_length == scan.total_length == disk.size(log.name)


def test_log_scan_truncates_torn_tail():
    disk = SimDisk("n0")
    log = BlockLog(disk)
    log.append(1, b"one")
    log.append(2, b"two")
    whole = disk.read(log.name)
    torn = whole[: len(whole) - 2]  # tear 2 bytes off the last record
    scan = scan_log_bytes(torn)
    assert scan.failure == "torn-tail"
    assert [r.height for r in scan.records] == [1]
    assert scan.valid_length < len(torn)


def test_log_scan_detects_bitflip_as_crc_mismatch():
    disk = SimDisk("n0", rng=random.Random(3))
    log = BlockLog(disk)
    log.append(1, b"one" * 20)
    log.append(2, b"two" * 20)
    data = bytearray(disk.read(log.name))
    data[-5] ^= 0x10  # flip inside the last record's payload
    scan = scan_log_bytes(bytes(data))
    assert scan.failure == "crc-mismatch"
    assert [r.height for r in scan.records] == [1]


def test_log_scan_rejects_height_gap():
    disk = SimDisk("n0")
    log = BlockLog(disk)
    log.append(1, b"one")
    log.append(3, b"three")  # a rolled-back disk re-appended past a hole
    scan = log.scan()
    assert scan.failure == "height-gap"
    assert [r.height for r in scan.records] == [1]


def test_log_scan_rejects_garbage_magic():
    scan = scan_log_bytes(b"XX" + b"\x00" * 30)
    assert scan.failure == "bad-magic"
    assert scan.records == []
    assert scan.valid_length == 0


# -- codec ------------------------------------------------------------------


def test_record_codec_roundtrip(keypair):
    _, commits = _build_chain(keypair, 1, txs_per_block=3)
    block, validity, errors = commits[0]
    proof = {"signers": ["a", "b", "c"], "signatures": {"a": "00ff"}}
    payload = encode_record(block, validity, errors, proof)
    decoded_block, decoded_validity, decoded_errors, decoded_proof = decode_record(payload)
    assert decoded_block == block
    assert decoded_block.block_hash == block.block_hash
    assert decoded_validity == validity
    assert decoded_errors == errors
    assert decoded_proof == proof
    # Determinism: identical input bytes on every encode.
    assert payload == encode_record(block, validity, errors, proof)


# -- DurableStore end to end ------------------------------------------------


def test_durable_store_recovers_full_replay(keypair, store_cls):
    ledger, commits = _build_chain(keypair, 5)
    store = store_cls(disk=SimDisk("n0"), snapshot_interval=100)
    state = _populate(store, commits)
    recovered = store.recover()
    assert recovered.report.mode == "full-replay"
    assert recovered.ledger.height == 5
    assert recovered.ledger.head.block_hash == ledger.head.block_hash
    assert recovered.state.state_digest() == state.state_digest()
    assert recovered.report.degradations == []
    assert recovered.report.missing_acked == {}


def test_durable_store_recovers_snapshot_plus_tail(keypair, store_cls):
    ledger, commits = _build_chain(keypair, 10)
    store = store_cls(disk=SimDisk("n0"), snapshot_interval=4)
    state = _populate(store, commits, snapshots=True)
    assert store.last_snapshot_height == 8
    recovered = store.recover()
    report = recovered.report
    assert report.mode == "snapshot+tail"
    assert report.snapshot_height == 8
    assert report.tail_records == 3  # anchor at 8 + blocks 9, 10
    assert recovered.ledger.height == 10
    assert recovered.state.state_digest() == state.state_digest()
    # The archive window still serves blocks below the snapshot.
    for height in range(0, 11):
        assert recovered.ledger.block(height).block_hash == ledger.block(height).block_hash
        assert recovered.ledger.block_validity(height) == ledger.block_validity(height)
    recovered.ledger.verify_chain()


def test_durable_store_receipts_survive_snapshot_recovery(keypair, store_cls):
    ledger, commits = _build_chain(keypair, 10, txs_per_block=3)
    store = store_cls(disk=SimDisk("n0"), snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    recovered = store.recover()
    expected = {
        tx.tx_id: validity[i]
        for block, validity, _ in commits
        for i, tx in enumerate(block.transactions)
    }
    got = {tx_id: r.success for tx_id, r in recovered.ledger.receipts.items()}
    assert got == expected
    # Invalid receipts keep the recorded error string through the log.
    failed = next(t for t, ok in expected.items() if not ok)
    assert recovered.ledger.receipts[failed].error == "MVCC conflict: stale read set"


def test_snapshot_indexes_hold_only_the_tx_id_lookup(keypair, store_cls):
    """By-sender / by-contract views belong to ChainIndex (rebuilt on every
    restart) and verdicts come with the blocks: snapshots carry only the
    tx-id locator, and a snapshot object written before the other maps
    were removed, which has them, still loads."""
    ledger, commits = _build_chain(keypair, 10)
    store = store_cls(disk=SimDisk("n0"), snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    snap = store._load_snapshot(store._snapshot_candidates()[-1])
    assert snap["height"] == 8
    assert set(snap) == {"height", "block_hash", "state", "indexes"}  # state, not history
    assert set(snap["indexes"]) == {"tx_locator"}
    tx = commits[7][0].transactions[0]
    old = dict(snap["indexes"], validity={tx.tx_id: True},
               by_sender={tx.sender: [tx.tx_id]}, by_contract={tx.contract: [tx.tx_id]})
    window = [commits[7]]  # (block, verdicts, errors) at height 8
    for indexes in (snap["indexes"], old):
        revived = Ledger.from_recovery(window, base=8, indexes=indexes)
        assert revived.get_transaction(tx.tx_id).block_height == 8
        assert revived.total_transactions() == 16


def test_torn_tail_truncates_and_reconciles_acked(keypair, store_cls):
    _, commits = _build_chain(keypair, 6)
    disk = SimDisk("n0", rng=random.Random(7))
    store = store_cls(disk=disk, snapshot_interval=100)
    _populate(store, commits)
    disk.arm_torn_write()
    disk.on_crash()
    recovered = store.recover()
    report = recovered.report
    assert recovered.ledger.height == 5
    assert [d.kind for d in report.degradations] == ["torn-tail", "acked-rollback"]
    assert report.missing_acked == {6: "record lost from log"}
    assert sorted(store.acked) == [1, 2, 3, 4, 5]
    # A second recovery sees the already-truncated log: clean this time.
    again = store.recover()
    assert again.report.degradations == []
    assert again.ledger.height == 5


def test_partial_flush_loss_is_counted_not_silent(keypair, store_cls):
    _, commits = _build_chain(keypair, 6)
    disk = SimDisk("n0")
    store = store_cls(disk=disk, snapshot_interval=100)
    registry = MetricsRegistry()
    store.attach(registry, "n0")
    _populate(store, commits)
    disk.arm_partial_flush(k=2)
    disk.on_crash()
    recovered = store.recover()
    report = recovered.report
    # The log is cleanly shorter — only the acked map can see the loss.
    assert recovered.ledger.height == 4
    assert sorted(report.missing_acked) == [5, 6]
    assert [d.kind for d in report.degradations] == ["acked-rollback"]
    counters = {
        c.labels["kind"]: c.value for c in registry.counters("store.degradations")
    }
    assert counters == {"acked-rollback": 1}


def test_corrupt_snapshot_falls_back_to_previous(keypair):
    ledger, commits = _build_chain(keypair, 12)
    disk = SimDisk("n0", rng=random.Random(9))
    store = DurableStore(disk=disk, snapshot_interval=4, keep_snapshots=2)
    state = _populate(store, commits, snapshots=True)
    snapshots = list_snapshots(disk)
    assert [s.height for s in snapshots] == [8, 12]
    assert disk.corrupt(role="snapshot") == snapshots[-1].name
    recovered = store.recover()
    report = recovered.report
    assert report.mode == "snapshot+tail"
    assert report.snapshot_height == 8
    assert [d.kind for d in report.degradations] == ["snapshot-corrupt"]
    assert recovered.ledger.height == 12
    assert recovered.state.state_digest() == state.state_digest()
    # The corrupt artifact was removed; the older snapshot survives.
    assert [s.height for s in list_snapshots(disk)] == [8]


def test_all_snapshots_corrupt_falls_back_to_full_replay(keypair):
    ledger, commits = _build_chain(keypair, 9)
    disk = SimDisk("n0", rng=random.Random(11))
    store = DurableStore(disk=disk, snapshot_interval=4, keep_snapshots=2)
    state = _populate(store, commits, snapshots=True)
    for snapshot in list_snapshots(disk):
        assert disk.corrupt(offset=10, name=snapshot.name) is not None
    recovered = store.recover()
    report = recovered.report
    assert report.mode == "full-replay"
    assert {d.kind for d in report.degradations} == {"snapshot-corrupt"}
    assert recovered.ledger.height == 9
    assert recovered.state.state_digest() == state.state_digest()


def test_snapshot_pruning_keeps_bounded_history(keypair):
    ledger, commits = _build_chain(keypair, 20)
    disk = SimDisk("n0")
    store = DurableStore(disk=disk, snapshot_interval=4, keep_snapshots=2)
    _populate(store, commits, snapshots=True)
    assert [s.height for s in list_snapshots(disk)] == [16, 20]


def test_write_snapshot_rejects_non_positive_keep(keypair):
    """keep <= 0 used to make the prune slice ``[:-keep]`` empty — a
    silent no-op that retained every snapshot forever."""
    ledger, commits = _build_chain(keypair, 1)
    disk = SimDisk("n0")
    for keep in (0, -1):
        with pytest.raises(ValueError, match="keep"):
            write_snapshot(disk, 1, ledger.head.block_hash, {}, {}, keep=keep)
    assert list_snapshots(disk) == []  # nothing was written before the check


def test_store_rejects_non_positive_keep_snapshots(store_cls):
    with pytest.raises(ValueError, match="keep_snapshots"):
        store_cls(disk=SimDisk("n0"), keep_snapshots=0)


def test_snapshot_loader_rejects_tampered_payload(keypair):
    ledger, commits = _build_chain(keypair, 4)
    disk = SimDisk("n0", rng=random.Random(13))
    store = DurableStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    candidate = list_snapshots(disk)[0]
    assert load_snapshot(disk, candidate) is not None
    disk.corrupt(role="snapshot")
    assert load_snapshot(disk, candidate) is None


@pytest.mark.parametrize("magic", [SNAPSHOT_MAGIC, IMAGE_MAGIC])
def test_unframe_names_the_first_check_that_fails(magic):
    """One envelope for both snapshot media: recovery rejects on any of
    these, ``repro-news store`` prints which."""
    payload = b"snapshot payload bytes"
    framed = frame(payload, magic)
    assert unframe(framed, magic) == payload
    assert unframe(framed + b"trailing bytes are not part of it", magic) == payload
    other = IMAGE_MAGIC if magic == SNAPSHOT_MAGIC else SNAPSHOT_MAGIC
    flipped = framed[:-1] + bytes([framed[-1] ^ 0x01])
    for data, problem in (
        (framed[:9], "shorter than header"),  # the header is 2 + 4 + 4 bytes
        (b"", "shorter than header"),
        (frame(payload, other), "bad magic"),
        (framed[:-1], "truncated payload"),
        (framed[:10], "truncated payload"),
        (flipped, "CRC mismatch"),
    ):
        assert unframe(data, magic) == problem


def test_snapshot_with_receipts_key_from_before_they_became_a_view_still_loads(keypair):
    """Forward compatibility: the parent's JSON snapshots carried the whole
    receipt map.  Such a file recovers to the same tip, state and receipts
    as the chain that wrote it; the extra key is ignored."""
    ledger, commits = _build_chain(keypair, 7, txs_per_block=3)
    disk = SimDisk("n0")
    store = DurableStore(disk=disk, snapshot_interval=1000)  # writes no snapshot itself
    state = _populate(store, commits)
    at = 5  # snapshot below the tip: blocks 6 and 7 replay on top of it
    early, _ = _build_chain(keypair, at, txs_per_block=3)  # the same chain, five blocks in
    early_state = _populate(DurableStore(disk=SimDisk("scratch")), commits[:at])
    assert early.head.block_hash == commits[at - 1][0].block_hash
    old_receipts = [
        {"tx_id": r.tx_id, "block_height": r.block_height, "success": r.success,
         "return_value": r.return_value, "events": list(r.events), "error": r.error,
         "gas_used": 0}
        for _, r in sorted(early.receipts.items())
    ]
    name = snapshot_name(at)
    disk.set_role(name, "snapshot")
    disk.append(name, frame(encode_obj({
        "height": at, "block_hash": early.head.block_hash, "state": early_state.dump(),
        "receipts": old_receipts, "indexes": early.index_dump(),
    }), SNAPSHOT_MAGIC))
    disk.fsync(name)

    recovered = store.recover()
    assert recovered.report.mode == "snapshot+tail"
    assert recovered.report.snapshot_height == at
    assert recovered.report.degradations == []
    assert recovered.ledger.head.block_hash == ledger.head.block_hash
    assert recovered.state.state_digest() == state.state_digest()
    assert dict(recovered.ledger.receipts) == dict(ledger.receipts)


def test_memory_store_recover_returns_none():
    store = MemoryStore()
    assert store.recover() is None
    assert store.on_commit(make_genesis_block(), []) is True
    assert store.maybe_snapshot(Ledger(), WorldState()) is False


def test_acked_map_tracks_payload_bytes(keypair, store_cls):
    _, commits = _build_chain(keypair, 2)
    store = store_cls(disk=SimDisk("n0"), snapshot_interval=100)
    _populate(store, commits)
    for block, validity, errors in commits:
        expected_crc = zlib.crc32(encode_record(block, validity, errors, None))
        assert store.acked[block.height] == (block.block_hash, expected_crc)


# -- inspection -------------------------------------------------------------


def test_inspect_disk_reports_log_and_snapshots(keypair):
    ledger, commits = _build_chain(keypair, 10)
    disk = SimDisk("n0")
    store = DurableStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    info = inspect_disk(disk)
    assert info["log"]["records"] == 10
    assert info["log"]["tip"] == 10
    assert info["log"]["failure"] is None
    assert [s["height"] for s in info["snapshots"]] == [4, 8]
    assert info["recovery"]["snapshot_height"] == 8
    text = render_inspection(info)
    assert "10 valid records" in text
    assert "snapshot+tail" in text


def test_inspect_surfaces_torn_tail(keypair):
    _, commits = _build_chain(keypair, 3)
    disk = SimDisk("n0", rng=random.Random(17))
    store = DurableStore(disk=disk, snapshot_interval=100)
    _populate(store, commits)
    disk.arm_torn_write()
    disk.on_crash()
    info = inspect_disk(disk)
    assert info["log"]["failure"] == "torn-tail"
    assert info["log"]["records"] == 2
    assert info["log"]["garbage_bytes"] > 0
    assert "torn-tail" in render_inspection(info)
