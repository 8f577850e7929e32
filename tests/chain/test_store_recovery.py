"""Network-level crash-consistency: restart is *recovery*, not replay.

With ``storage="durable"`` every peer write-ahead logs its commits to a
fault-injectable :class:`~repro.simnet.disk.SimDisk`.  These tests crash
peers under injected disk faults — torn writes, lying-drive partial
flushes, bit flips in the log and in snapshots — restart them through
:meth:`DurableStore.recover`, and hold the network to the full invariant
suite: acked-durable blocks survive byte-identical, every loss is a
counted degradation (never a wrong state), and recovered peers
re-converge with the fleet.

The hypothesis property at the bottom pins the recovery semantics
itself: for any crash point and snapshot interval, recovering a durable
store yields exactly the ledger tip, receipts, and world state of the
uninterrupted run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.store import DurableStore, SQLiteStore
from repro.chain.transaction import Transaction, TxReceipt
from repro.crypto import KeyPair
from repro.simnet import ChaosSchedule, FailureSchedule, UniformLatency
from repro.simnet.disk import SimDisk

DEFAULT_DISK_SEEDS = range(4)
EXTENDED_DISK_SEEDS = range(4, 24)


#: Both durable backends honour the same recovery contract; the network
#: suites run against each so SQLiteStore earns the same guarantees.
BACKENDS = ("durable", "sqlite")


def _build(seed: int, snapshot_interval: int = 4, storage: str = "durable"):
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=UniformLatency(0.01, 0.05), seed=seed, view_timeout=4.0,
        storage=storage, snapshot_interval=snapshot_interval,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    schedule = FailureSchedule(network.sim, network.net)
    return network, auditor, schedule


def _drive(network, n_txs: int, gap: float = 0.8) -> None:
    client = network.client()
    for _ in range(n_txs):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.run_for(gap)


def _assert_converged(network) -> None:
    heights = {p.node_id: p.ledger.height for p in network.peers}
    assert len(set(heights.values())) == 1, f"heights diverge: {heights}"
    digests = {p.node_id: p.state.state_digest() for p in network.peers}
    assert len(set(digests.values())) == 1, f"state digests diverge: {digests}"


def _peer(network, node_id):
    return next(p for p in network.peers if p.node_id == node_id)


@pytest.mark.parametrize("storage", BACKENDS)
def test_restart_recovers_from_store_not_replay(storage):
    """A clean crash-restart must come back through the store: snapshot
    + tail, with the archived prefix still queryable block by block."""
    network, auditor, schedule = _build(seed=3, snapshot_interval=4, storage=storage)
    schedule.crash_at(10.0, "peer-1")
    schedule.restart_at(13.0, "peer-1")
    _drive(network, n_txs=24)
    network.run_for(15.0)
    network.stop()
    peer = _peer(network, "peer-1")
    report = peer.store.last_recovery
    assert report is not None, "restart did not go through the store"
    assert report.mode == "snapshot+tail"
    assert report.snapshot_height > 0
    assert report.degradations == [] and report.missing_acked == {}
    # The archive window serves the full chain, hash-linked end to end.
    assert peer.ledger.verify_chain()
    _assert_converged(network)
    assert auditor.final_check(failures=schedule.log) == []


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("fault", ["torn", "partial", "bitflip-log", "bitflip-snapshot"])
def test_disk_fault_recovery_reconverges(fault, storage):
    """Every injected fault class degrades detectably and re-converges."""
    network, auditor, schedule = _build(seed=13, snapshot_interval=4, storage=storage)
    victim = "peer-2"
    if fault == "torn":
        schedule.torn_write_at(7.9, victim)
    elif fault == "partial":
        schedule.partial_flush_at(7.9, victim, k=3)
    elif fault == "bitflip-log":
        schedule.bitflip_at(9.0, victim, artifact="log")
    else:
        schedule.bitflip_at(9.0, victim, artifact="snapshot")
    schedule.crash_at(8.0, victim)
    schedule.restart_at(13.0, victim)
    _drive(network, n_txs=24)
    network.run_for(15.0)
    network.stop()
    _assert_converged(network)
    report = _peer(network, victim).store.last_recovery
    assert report is not None
    if fault != "bitflip-snapshot":
        # Log-directed faults cost blocks; the loss must be accounted.
        assert report.missing_acked, "fault lost nothing — scenario too weak"
        assert any(d.kind == "acked-rollback" for d in report.degradations)
    else:
        # Snapshot corruption falls back a rung but loses no blocks.
        assert [d.kind for d in report.degradations] == ["snapshot-corrupt"]
        assert report.missing_acked == {}
    assert auditor.final_check(failures=schedule.log) == []
    # The degradation counters saw exactly what the report recorded.
    counted = sum(
        c.value for c in network.obs.counters("store.degradations")
        if c.labels.get("peer") == victim
    )
    assert counted == len(report.degradations)


@pytest.mark.parametrize("storage", BACKENDS)
def test_synced_tip_proof_is_logged_recovered_and_checked(storage):
    """The statement set that certified a synced tip is the one proof a
    WAL record carries: it comes back verified on restart, and a record
    whose stored proof no longer verifies — bytes intact, CRC right —
    takes the ``certificate-invalid`` rung instead of being trusted."""
    from repro.chain.store.codec import decode_record, encode_record
    from repro.chain.store.log import LOG_NAME, BlockLog, scan_log_bytes

    network, _, schedule = _build(seed=5, snapshot_interval=64, storage=storage)
    victim = _peer(network, "peer-2")
    schedule.crash_at(1.0, victim.node_id)
    _drive(network, n_txs=8)
    network.run_for(3.0)
    schedule.recover_at(network.sim.now + 0.2, victim.node_id)
    network.run_for(6.0)
    (tip,) = victim.engine.synced_proofs  # idle chain: one batch, one tip
    proof = victim.engine.sync_proof(tip)
    head = victim.ledger.height
    assert tip == head >= 8

    # Clean restart: every record below the tip is unproven, the tip's
    # proof is re-verified and handed back to the engine.
    victim.engine.synced_proofs.clear()
    victim.restart()
    report = victim.store.last_recovery
    assert report.degradations == [] and report.recovered_height == head
    assert report.unproven_records == head - 1
    assert victim.engine.synced_proofs == {tip: proof}

    # Same bytes, but every statement is the first validator's: only f
    # of them verify now.
    disk = victim.store.disk
    records = scan_log_bytes(disk.read(LOG_NAME)).records
    target = records[tip - 1]
    block, validity, errors, stored = decode_record(target.payload)
    assert stored == proof
    first = min(stored["signatures"])
    stored["signatures"] = dict.fromkeys(stored["signatures"], stored["signatures"][first])
    disk.truncate(LOG_NAME, target.offset)
    BlockLog(disk).append(tip, encode_record(block, validity, errors, stored))
    victim.restart()
    report = victim.store.last_recovery
    assert [d.kind for d in report.degradations][0] == "certificate-invalid"
    assert report.recovered_height == tip - 1 and victim.ledger.height == tip - 1
    assert tip not in victim.engine.synced_proofs
    network.run_for(6.0)  # the block is fetched and certified afresh
    network.stop()
    _assert_converged(network)
    assert victim.engine.verify_synced_block(victim.ledger.block(tip), victim.engine.sync_proof(tip))


def test_disk_events_logged_for_forensics():
    network, _, schedule = _build(seed=5)
    schedule.torn_write_at(5.9, "peer-1")
    schedule.crash_at(6.0, "peer-1")
    schedule.restart_at(9.0, "peer-1")
    _drive(network, n_txs=16)
    network.run_for(10.0)
    network.stop()
    actions = [e.action for e in schedule.log]
    assert "disk-arm-torn-write" in actions
    assert "disk-torn-write" in actions  # fired at the crash itself
    assert actions.index("disk-torn-write") < actions.index("crash")


def _run_disk_chaos(seed: int, duration: float = 24.0, settle: float = 40.0,
                    n_txs: int = 12, storage: str = "durable"):
    """One audited chaos run with the ``disk`` scenario enabled."""
    from tests.conftest import CounterContract

    rng = random.Random(seed)
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=UniformLatency(0.01, 0.08), seed=seed, view_timeout=4.0,
        storage=storage, snapshot_interval=4,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    chaos = ChaosSchedule(network.sim, network.net, seed=seed)
    chaos.plan(duration, validators=[p.node_id for p in network.peers],
               scenarios=("crash", "disk"))
    client = network.client()
    for _ in range(n_txs):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.run_for(rng.uniform(0.4, duration / n_txs))
    network.run_for(max(0.0, duration - network.sim.now) + settle)
    network.stop()
    auditor.final_check(failures=chaos.log, sync_window=duration + settle)
    return network, auditor, chaos


@pytest.mark.parametrize("seed", DEFAULT_DISK_SEEDS)
def test_disk_chaos_audited(seed):
    network, auditor, chaos = _run_disk_chaos(seed)
    assert auditor.violations == []
    assert chaos.log, "chaos plan injected nothing"
    _assert_converged(network)


@pytest.mark.parametrize("seed", [0, 1])
def test_disk_chaos_audited_sqlite(seed):
    """The sqlite backend survives the same disk-fault chaos (a slice in
    tier-1; the full sweep runs behind ``-m chaos`` / ``make recovery``)."""
    network, auditor, chaos = _run_disk_chaos(seed, storage="sqlite")
    assert auditor.violations == []
    assert chaos.log, "chaos plan injected nothing"
    _assert_converged(network)


def test_disk_scenario_does_not_perturb_existing_plans():
    """Enabling ``disk`` must only *add* events: the crash/partition/
    latency/rogue plan for a seed is byte-identical either way."""
    def plan_events(scenarios):
        network, _, _ = _build(seed=9)
        chaos = ChaosSchedule(network.sim, network.net, seed=21)
        chaos.plan(20.0, validators=[p.node_id for p in network.peers],
                   scenarios=scenarios)
        network.sim.run(until=30.0)
        return [(e.time, e.action, e.target) for e in chaos.log]

    base = plan_events(("crash", "partition", "latency"))
    with_disk = plan_events(("crash", "partition", "latency", "disk"))
    non_disk = [e for e in with_disk if not e[1].startswith("disk-")]
    assert non_disk == base


def test_disk_scenario_requires_crash_windows():
    """Disk faults attach to crash windows, so ``scenarios={"disk"}``
    without ``"crash"`` would silently schedule nothing — and read as a
    passing crash-consistency run that injected zero faults.  ``plan``
    refuses the combination and, when valid, reports how many disk
    faults it armed so callers can assert the run actually bit."""
    network, _, _ = _build(seed=3)
    chaos = ChaosSchedule(network.sim, network.net, seed=3)
    validators = [p.node_id for p in network.peers]
    with pytest.raises(ValueError, match="disk"):
        chaos.plan(20.0, validators=validators, scenarios=("disk",))
    armed = chaos.plan(20.0, validators=validators,
                       scenarios=("crash", "disk"))
    network.sim.run(until=30.0)
    fired = [e for e in chaos.log if e.action.startswith("disk-")]
    assert len(fired) == armed


@pytest.mark.chaos
@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("seed", EXTENDED_DISK_SEEDS)
def test_disk_chaos_audited_extended(seed, storage):
    """The wide disk-fault sweep behind ``make chaos`` / ``make recovery``,
    over both durable backends."""
    network, auditor, chaos = _run_disk_chaos(seed, duration=40.0, settle=50.0,
                                              n_txs=20, storage=storage)
    assert auditor.violations == []
    _assert_converged(network)


# -- recovery-equivalence property -----------------------------------------


_KEYPAIR = KeyPair.generate(random.Random(0))


def _make_tx(nonce: int) -> Transaction:
    tx = Transaction.create(_KEYPAIR, "counter", "increment", {"n": nonce}, nonce=nonce)
    return tx.with_execution(
        read_set={}, write_set={f"counter/{nonce % 5}": nonce},
        events=(), return_value=nonce, endorsements=(),
    )


@pytest.mark.parametrize("store_cls", [DurableStore, SQLiteStore])
@given(
    crash_point=st.integers(min_value=1, max_value=24),
    snapshot_interval=st.integers(min_value=1, max_value=9),
    torn=st.booleans(),
)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_recovery_equals_uninterrupted_run(store_cls, crash_point,
                                           snapshot_interval, torn):
    """For any crash point and snapshot interval, recovering a durable
    store — either backend — reproduces the uninterrupted run exactly:
    same ledger tip, same receipts, same world-state contents.

    The crash lands after *crash_point* commits.  A clean crash (every
    record was fsync'd) must lose nothing; with a torn final write the
    store must come back at exactly ``crash_point - 1`` — the state of
    the uninterrupted run one block earlier — with the loss accounted.
    """
    disk = SimDisk("n0", rng=random.Random(42))
    store = store_cls(disk=disk, snapshot_interval=snapshot_interval)
    ledger, state, receipts = Ledger(), WorldState(), {}
    checkpoints = {0: (ledger.head.block_hash, state.dump(), {})}
    nonce = 0
    for height in range(1, crash_point + 1):
        txs = [_make_tx(nonce), _make_tx(nonce + 1)]
        nonce += 2
        block = Block.build(height, ledger.head.block_hash, float(height), "p", txs)
        validity = [tx.nonce % 7 != 3 for tx in txs]
        errors = [None if ok else "MVCC conflict: stale read set" for ok in validity]
        ledger.append(block, validity, errors)
        for index, tx in enumerate(block.transactions):
            if validity[index]:
                state.apply_write_set(tx.write_set)
            receipts[tx.tx_id] = TxReceipt(
                tx_id=tx.tx_id, block_height=height, success=validity[index],
                return_value=tx.return_value if validity[index] else None,
                events=(), error=errors[index],
            )
        store.on_commit(block, validity, proof=None, errors=errors)
        store.maybe_snapshot(ledger, state)
        checkpoints[height] = (ledger.head.block_hash, state.dump(), dict(receipts))

    if torn:
        disk.arm_torn_write()
    disk.on_crash()
    recovered = store.recover()
    expected_height = crash_point - 1 if torn else crash_point
    expected_tip, expected_state, expected_receipts = checkpoints[expected_height]

    assert recovered.ledger.height == expected_height
    assert recovered.ledger.head.block_hash == expected_tip
    assert recovered.state.dump() == expected_state
    got = {tx_id: (r.success, r.block_height, r.error)
           for tx_id, r in recovered.ledger.receipts.items()}
    want = {tx_id: (r.success, r.block_height, r.error)
            for tx_id, r in expected_receipts.items()}
    assert got == want
    if torn:
        assert recovered.report.missing_acked == {crash_point: "record lost from log"}
        assert any(d.kind == "acked-rollback" for d in recovered.report.degradations)
    else:
        assert recovered.report.degradations == []
        assert recovered.report.missing_acked == {}
    # The chain that came back is hash-linked end to end.
    assert recovered.ledger.verify_chain()
