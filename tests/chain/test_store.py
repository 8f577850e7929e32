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
import struct
import zlib

import pytest

from repro.chain import BlockchainNetwork
from repro.chain.block import Block
from repro.chain.commit import replay_block
from repro.chain.explorer import find_transactions
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.store import (
    DurableStore,
    SQLiteStore,
    decode_record,
    encode_record,
    inspect_disk,
    list_snapshots,
    load_snapshot,
    render_inspection,
    scan_log_bytes,
)
from repro.chain.store.codec import deflate, encode_obj, inflate
from repro.chain.store.log import BlockLog
from repro.chain.store.snapshots import SnapshotCandidate, frame, snapshot_name, unframe
from repro.chain.transaction import Transaction
from repro.crypto import KeyPair
from repro.obs import MetricsRegistry
from repro.simnet.disk import SimDisk
from tests.conftest import CounterContract


@pytest.fixture
def keypair():
    return KeyPair.generate(random.Random(0))


#: Contract tests run against both store names: ``SQLiteStore`` is the
#: store the end-to-end harness builds (``storage="sqlite"``), and it must
#: keep every recovery-ladder promise DurableStore makes until the harness
#: builds ``"durable"`` (ROADMAP 5 (h)).
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


def _write_snapshot_file(disk, height, data):
    """Write *data* as the snapshot file for *height*, durably."""
    name = snapshot_name(height)
    disk.set_role(name, "snapshot")
    disk.append(name, data)
    disk.fsync(name)


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
    """Verdicts come with the blocks: a snapshot carries the state and the
    rows of the ledger's ChainIndex — the interned tables and one row per
    transaction — from which the id lookup and the by-sender / by-contract
    views are rebuilt.  Keys a dump does not use (the tx-id locator and
    the maps older snapshots carried) are ignored."""
    ledger, commits = _build_chain(keypair, 10)
    store = store_cls(disk=SimDisk("n0"), snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    snap = load_snapshot(store.disk, list_snapshots(store.disk)[-1])
    assert snap["height"] == 8
    assert set(snap) == {"height", "block_hash", "state", "index"}  # state, not history
    assert set(snap["index"]) == {"addresses", "methods", "rows"}
    assert len(snap["index"]["rows"]) == 16
    tx = commits[7][0].transactions[0]
    old = dict(snap["index"], tx_locator={tx.tx_id: [8, 0]}, validity={tx.tx_id: True},
               by_sender={tx.sender: [tx.tx_id]}, by_contract={tx.contract: [tx.tx_id]})
    window = [commits[7]]  # (block, verdicts, errors) at height 8
    for index in (snap["index"], old):
        revived = Ledger.from_recovery(window, base=8, index=index)
        assert revived.get_transaction(tx.tx_id).block_height == 8
        assert revived.total_transactions() == 16
        assert revived.index.height == 8
        assert [row.tx_id for row in revived.index.find_transactions(sender=tx.sender)] == [
            row.tx_id for row in ledger.index.find_transactions(sender=tx.sender)
            if row.block_height <= 8
        ]


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
    store = DurableStore(disk=disk, snapshot_interval=4)
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
    store = DurableStore(disk=disk, snapshot_interval=4)
    state = _populate(store, commits, snapshots=True)
    for snapshot in list_snapshots(disk):
        assert disk.corrupt(offset=10, name=snapshot.name) is not None
    recovered = store.recover()
    report = recovered.report
    assert report.mode == "full-replay"
    assert {d.kind for d in report.degradations} == {"snapshot-corrupt"}
    assert recovered.ledger.height == 9
    assert recovered.state.state_digest() == state.state_digest()


def test_recovery_discards_snapshots_above_the_recovered_tip(keypair, store_cls):
    """A torn tail below the newest snapshot leaves that file describing a
    block the log lost.  Recovery deletes it, so committing that height
    again writes one fresh frame, not a second one behind the stale frame
    every later load would read."""
    _, commits = _build_chain(keypair, 8)
    disk = SimDisk("n0", rng=random.Random(7))
    store = store_cls(disk=disk, snapshot_interval=4)
    registry = MetricsRegistry()
    store.attach(registry, "n0")
    _populate(store, commits, snapshots=True)
    disk.arm_torn_write()
    disk.on_crash()
    recovered = store.recover()
    assert recovered.report.recovered_height == 7
    assert recovered.report.snapshot_height == 4
    assert registry.total("store.snapshots_discarded") == 1
    assert registry.total("store.degradations") == len(recovered.report.degradations)
    # Regrow to 8: the snapshot at 8 is written again.
    block, validity, errors = commits[7]
    replay_block(block, validity, errors, ledger=recovered.ledger, state=recovered.state)
    store.on_commit(block, validity, errors=errors)
    assert store.maybe_snapshot(recovered.ledger, recovered.state)
    files = disk.names_with_role("snapshot")
    assert len(files) == 2
    for name in files:
        data = disk.read(name)
        _, length, _ = struct.unpack_from(">2sII", data)
        assert len(data) == struct.calcsize(">2sII") + length, f"{name} holds more than one frame"


def test_snapshot_pruning_keeps_bounded_history(keypair):
    ledger, commits = _build_chain(keypair, 20)
    disk = SimDisk("n0")
    store = DurableStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    assert [s.height for s in list_snapshots(disk)] == [16, 20]


def test_snapshot_loader_rejects_tampered_payload(keypair):
    ledger, commits = _build_chain(keypair, 4)
    disk = SimDisk("n0", rng=random.Random(13))
    store = DurableStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    candidate = list_snapshots(disk)[0]
    assert load_snapshot(disk, candidate) is not None
    # A file whose recorded height disagrees with its name (renamed or
    # cross-wired) is refused as well.
    assert load_snapshot(disk, SnapshotCandidate(name=candidate.name, height=3)) is None
    disk.corrupt(role="snapshot")
    assert load_snapshot(disk, candidate) is None


def test_unframe_names_the_first_check_that_fails():
    """Recovery rejects a snapshot file on any of these, ``repro-news
    store`` prints which."""
    payload = b"snapshot payload bytes"
    framed = frame(payload)
    assert unframe(framed) == payload
    assert unframe(framed + b"trailing bytes are not part of it") == payload
    flipped = framed[:-1] + bytes([framed[-1] ^ 0x01])
    for data, problem in (
        (framed[:9], "shorter than header"),  # the header is 2 + 4 + 4 bytes
        (b"", "shorter than header"),
        (b"XX" + framed[2:], "bad magic"),
        (framed[:-1], "truncated payload"),
        (framed[:10], "truncated payload"),
        (flipped, "CRC mismatch"),
    ):
        assert unframe(data) == problem


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
    _write_snapshot_file(disk, at, frame(deflate(encode_obj({
        "height": at, "block_hash": early.head.block_hash, "state": early_state.dump(),
        "receipts": old_receipts, "indexes": {"tx_locator": {}}, "index": early.index.dump(),
    }))))

    recovered = store.recover()
    assert recovered.report.mode == "snapshot+tail"
    assert recovered.report.snapshot_height == at
    assert recovered.report.degradations == []
    assert recovered.ledger.head.block_hash == ledger.head.block_hash
    assert recovered.state.state_digest() == state.state_digest()
    assert dict(recovered.ledger.receipts) == dict(ledger.receipts)


def test_snapshot_without_index_rows_is_not_resumed_from(keypair):
    """A snapshot that carries no ``index`` (written before the index rows
    were) cannot rebuild the ledger's index without the archive: recovery
    counts it as failing verification and replays the log instead."""
    ledger, commits = _build_chain(keypair, 6)
    disk = SimDisk("n0")
    store = DurableStore(disk=disk, snapshot_interval=1000)
    state = _populate(store, commits)
    early, _ = _build_chain(keypair, 4)
    early_state = _populate(DurableStore(disk=SimDisk("scratch")), commits[:4])
    _write_snapshot_file(disk, 4, frame(deflate(encode_obj({
        "height": 4, "block_hash": early.head.block_hash, "state": early_state.dump(),
        "indexes": {"tx_locator": {}},
    }))))

    recovered = store.recover()
    assert recovered.report.mode == "full-replay"
    assert [d.kind for d in recovered.report.degradations] == ["snapshot-corrupt"]
    assert recovered.state.state_digest() == state.state_digest()
    assert recovered.ledger.index.dump() == ledger.index.dump()


def _malformed_snapshot(obj, broken):
    """The snapshot object *obj* with one field broken, framed as the store
    frames a snapshot — or, when *broken* is ``"not deflated"``, intact
    but framed without deflating."""
    payload = encode_obj({
        "a list": [obj["height"], obj["block_hash"]],
        "no state": {k: v for k, v in obj.items() if k != "state"},
        "a string height": dict(obj, height=str(obj["height"])),
        "no block hash": dict(obj, block_hash=None),
        "not deflated": obj,
    }[broken])
    return frame(payload if broken == "not deflated" else deflate(payload))


@pytest.mark.parametrize("broken, problem", [
    ("a list", "payload is not an object"),
    ("no state", "no state or no index"),
    ("a string height", "height is not 8"),
    ("no block hash", "no block hash"),
    ("not deflated", "undecodable payload"),
])
def test_a_malformed_snapshot_fails_verification(keypair, broken, problem):
    """A CRC-valid snapshot whose payload is not a snapshot is refused like
    a corrupt one: recovery resumes from the one before it and
    ``repro-news store`` reports it invalid — neither raises."""
    _, commits = _build_chain(keypair, 10)
    disk = SimDisk("n0")
    store = DurableStore(disk=disk, snapshot_interval=4)
    state = _populate(store, commits, snapshots=True)
    newest = list_snapshots(disk)[-1]
    assert newest.height == 8
    good = load_snapshot(disk, newest)
    disk.delete(newest.name)
    _write_snapshot_file(disk, newest.height, _malformed_snapshot(good, broken))
    assert load_snapshot(disk, newest) is None

    info = inspect_disk(disk)
    assert [(s["height"] if s["valid"] else s["problem"]) for s in info["snapshots"]] == [4, problem]
    assert info["recovery"]["mode"] == "snapshot+tail" and info["recovery"]["snapshot_height"] == 4
    assert f"INVALID ({problem})" in render_inspection(info)

    recovered = store.recover()
    assert recovered.report.mode == "snapshot+tail" and recovered.report.snapshot_height == 4
    assert [d.kind for d in recovered.report.degradations] == ["snapshot-corrupt"]
    assert recovered.ledger.height == 10
    assert recovered.state.state_digest() == state.state_digest()


@pytest.mark.parametrize("rewrite", ["one verdict too many", "one error too few", "not deflated"])
def test_a_record_that_decodes_wrong_truncates_the_log_there(keypair, store_cls, rewrite):
    """A CRC-valid record whose payload does not inflate, or whose verdicts
    or error strings are not one per transaction, is a ``decode-error``:
    recovery cuts the log at it and keeps every block below."""
    ledger, commits = _build_chain(keypair, 6)
    disk = SimDisk("n0")
    store = store_cls(disk=disk, snapshot_interval=100)
    state_at_3 = _populate(DurableStore(disk=SimDisk("scratch")), commits[:3])
    _populate(store, commits)
    records = store.log.scan().records
    block, validity, errors = commits[3]
    bad = {
        "one verdict too many": encode_record(block, validity + [True], errors + [None]),
        "one error too few": encode_record(block, validity, errors[:-1]),
        "not deflated": inflate(records[3].payload),
    }[rewrite]
    with pytest.raises(ValueError):
        decode_record(bad)
    disk.truncate(store.log.name, records[3].offset)
    store.log.append(4, bad)
    for record in records[4:]:
        store.log.append(record.height, record.payload)

    info = inspect_disk(disk)
    assert info["log"]["records"] == 6 and info["log"]["failure"] is None
    assert info["log"]["not_inflating"] == ([4] if rewrite == "not deflated" else [])

    recovered = store.recover()
    report = recovered.report
    assert [d.kind for d in report.degradations] == ["decode-error", "acked-rollback"]
    assert report.degradations[0].height == 4
    assert sorted(report.missing_acked) == [4, 5, 6]
    assert recovered.ledger.height == 3
    assert recovered.ledger.head.block_hash == ledger.block(3).block_hash
    assert recovered.state.state_digest() == state_at_3.state_digest()
    assert store.log.scan().tip == 3


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
    # Beside each stored size, the size with the payloads inflated.
    header = struct.calcsize(">2sIII")
    records = scan_log_bytes(disk.read(store.log.name)).records
    assert info["log"]["inflated_bytes"] == sum(header + len(inflate(r.payload)) for r in records)
    assert info["log"]["inflated_bytes"] > info["log"]["bytes"]
    assert info["log"]["not_inflating"] == []
    for snap in info["snapshots"]:
        data = disk.read(snap["file"])
        assert snap["bytes"] == len(data)
        assert snap["inflated_bytes"] == len(frame(inflate(unframe(data)))) > len(data)
    text = render_inspection(info)
    assert "10 valid records" in text
    assert "snapshot+tail" in text
    assert (f"{info['log']['bytes']} bytes stored deflated, "
            f"{info['log']['inflated_bytes']} inflated") in text
    for snap in info["snapshots"]:
        assert (f"{snap['bytes']} bytes stored deflated, "
                f"{snap['inflated_bytes']} inflated") in text


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


def test_inspection_reports_the_recovery_that_happens(keypair):
    """A validly framed snapshot naming another block hash passes every
    file check, but recovery rejects it against the log and resumes from
    the one before: inspection reports that recovery, and changes no
    byte of the files it reads."""
    _, commits = _build_chain(keypair, 11)
    disk = SimDisk("peer-1")
    store = DurableStore(disk=disk, snapshot_interval=4)
    state = _populate(store, commits, snapshots=True)
    newest = list_snapshots(disk)[-1]
    assert newest.height == 8
    obj = load_snapshot(disk, newest)
    disk.delete(newest.name)
    _write_snapshot_file(disk, 8, frame(deflate(encode_obj(dict(obj, block_hash="ab" * 32)))))
    files = {name: disk.read(name) for name in disk.names()}

    info = inspect_disk(disk)
    assert [s["valid"] for s in info["snapshots"]] == [True, True]
    assert {name: disk.read(name) for name in disk.names()} == files
    recovered = store.recover()
    assert info["recovery"] == recovered.report.summary()
    assert (info["recovery"]["mode"], info["recovery"]["snapshot_height"],
            info["recovery"]["tail_records"]) == ("snapshot+tail", 4, 8)
    assert [d["kind"] for d in info["recovery"]["degradations"]] == ["snapshot-mismatch"]
    assert "snapshot-mismatch" in render_inspection(info)
    assert recovered.state.state_digest() == state.state_digest()


# -- the harness's store queries: answered by the ledger's index ------------


def _chain_with_a_repeat(keypair, n_blocks, at):
    """``_build_chain``'s shape, except that block *at* commits two ids
    again: nonce 0 (valid in block 1) fails this time and nonce 3 (failed
    in block 2) is valid, so under never-downgrade one id keeps naming its
    first copy and one names its second."""
    ledger, commits, nonce = Ledger(), [], 0
    for height in range(1, n_blocks + 1):
        if height == at:
            txs, validity = [_tx(keypair, 0), _tx(keypair, 3)], [False, True]
        else:
            txs, nonce = [_tx(keypair, nonce), _tx(keypair, nonce + 1)], nonce + 2
            validity = [tx.nonce % 5 != 3 for tx in txs]
        errors = [None if ok else "MVCC conflict: stale read set" for ok in validity]
        block = Block.build(height, ledger.head.block_hash, float(height), "peer-0", txs)
        ledger.append(block, validity, errors)
        commits.append((block, validity, errors))
    return ledger, commits


def _filter_shapes(sender, contract="counter", method="increment"):
    """Every filter shape ``query_transactions`` takes."""
    return (
        {},
        {"limit": 7},
        {"contract": contract},
        {"method": method, "limit": 4},
        {"sender": sender},
        {"contract": contract, "method": method, "sender": sender},
        {"contract": "absent"},
        {"sender": "nobody"},
        {"limit": 0},
    )


def _rows(ledger, **filters):
    return [(r["tx_id"], r["block_height"], r["valid"])
            for r in find_transactions(ledger, index=ledger.index, **filters)]


def test_query_transactions_matches_explorer_scan(keypair):
    """``SQLiteStore.query_transactions`` is the explorer's search over
    the served ledger's index: for every filter shape it equals the
    indexed search and the ledger scan, and an id committed twice gives
    two rows, as it always did in the explorer."""
    ledger, _ = _chain_with_a_repeat(keypair, 15, at=6)
    store = SQLiteStore(disk=SimDisk("n0"))
    store.serve(lambda: ledger)
    for filters in _filter_shapes(keypair.address):
        assert store.query_transactions(**filters) == find_transactions(
            ledger, index=ledger.index, **filters
        ) == find_transactions(ledger, **filters), filters
    repeated = _tx(keypair, 0).tx_id
    assert [(h, v) for tx_id, h, v in _rows(ledger, limit=100) if tx_id == repeated] == [
        (6, False), (1, True)]
    assert store.sql_stats() == {"txs": 30, "addresses": 1, "contracts": 1, "methods": 1}


def test_query_surface_survives_crash_recovery():
    """A ``storage="sqlite"`` peer's store answers from the peer's ledger,
    the one a crash-restart recovers included: after snapshot+tail
    recovery every filter shape gives the rows it gave before the crash,
    an id committed twice included."""
    network = BlockchainNetwork(n_peers=1, consensus="poa", seed=5, storage="sqlite",
                                snapshot_interval=4)
    network.install_contract(CounterContract)
    peer, client = network.peers[0], network.client()

    def commit(tx):
        peer.commit_block(Block.build(
            peer.ledger.height + 1, peer.ledger.head.block_hash, 0.0, peer.node_id, [tx]))

    repeated = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    commit(repeated)
    for _ in range(8):
        commit(network.endorse_transaction(client, "counter", "increment", {"amount": 1}))
    commit(repeated)  # a duplicate of a valid tx: it commits again, invalid
    shapes = _filter_shapes(client.address)
    before = [peer.store.query_transactions(**filters) for filters in shapes]
    assert [(h, v) for tx_id, h, v in _rows(peer.ledger, limit=100)
            if tx_id == repeated.tx_id] == [(10, False), (1, True)]
    crashed = peer.ledger
    peer.disk.on_crash()
    peer.restart()
    report = peer.store.last_recovery
    assert (report.mode, report.snapshot_height, report.degradations) == (
        "snapshot+tail", 8, [])
    assert peer.ledger is not crashed
    for filters, answered in zip(shapes, before):
        assert peer.store.query_transactions(**filters) == answered == find_transactions(
            peer.ledger, index=peer.index, **filters), filters
    assert peer.store.sql_stats()["txs"] == len(peer.index) == 10


def test_index_reconciled_after_log_truncation(keypair):
    """A torn tail shortens the chain below what the index held: the
    recovered index holds exactly the live rows of the surviving heights
    (those below the snapshot from the snapshot's rows), and the id
    committed twice still names its valid copy."""
    tx0 = _tx(keypair, 0)
    live, commits = _chain_with_a_repeat(keypair, 10, at=6)
    disk = SimDisk("n0", rng=random.Random(7))
    store = DurableStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    disk.arm_torn_write()
    disk.on_crash()
    recovered = store.recover()
    tip = recovered.report.recovered_height
    assert (tip, recovered.report.snapshot_height) == (9, 8)  # last record torn off
    ledger = recovered.ledger
    assert ledger.index.height == tip and ledger.index.verify_against(ledger) == []
    assert _rows(ledger, limit=100) == [
        row for row in _rows(live, limit=100) if row[1] <= tip]
    assert ledger.index.get(tx0.tx_id).block_height == 1  # never downgraded
