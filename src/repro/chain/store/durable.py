"""The durable backend: write-ahead block log + periodic snapshots.

Commit path (:meth:`DurableStore.on_commit`): the block, its validity
verdicts, its per-tx error strings, and its consensus proof are encoded
into one record (canonical JSON, deflated), appended to the log, and
fsync'd — only then is the block *acknowledged durable* and remembered
in :attr:`DurableStore.acked` (the model's ground truth for the
storage-durability invariant; it is never used to rebuild state).
Every ``snapshot_interval`` blocks, :meth:`maybe_snapshot` persists the
world state and the rows of the ledger's transaction index — not
history: a receipt is read from the ledger, which recovery rebuilds from
the log.

Recovery (:meth:`recover`) is verify-before-trust, and it *degrades*,
never guesses::

    scan log        -> trust only the CRC-valid, height-contiguous prefix;
                       a torn tail or corrupt record truncates the log
    pick snapshot   -> newest valid snapshot at height <= log tip; a
                       corrupt snapshot falls back to the previous one,
                       and with none left, to full replay
    decode tail     -> every record above the snapshot is decoded,
                       structure-verified, linkage-checked, and (when a
                       proof was stored) checked against the engine's
                       commit-certificate rule; a failure truncates the
                       log there and restarts the ladder
    discard         -> snapshot files above the recovered tip describe
                       blocks the log no longer holds: they are deleted
                       (``store.snapshots_discarded``), so a re-committed
                       height gets a fresh file instead of a second frame
                       behind the stale one
    reconcile       -> every block acked durable before the crash must
                       come back; ones that cannot are reported in
                       ``missing_acked`` with a matching degradation

Every step down the ladder increments ``store.degradations`` (labelled
by kind) and is listed in the :class:`~repro.chain.store.base.
RecoveryReport` that ``repro-news store`` renders and the invariant
auditor cross-checks.  A discarded stale snapshot is not a step down:
nothing acknowledged is lost with it.

Snapshots have one format, defined in :mod:`repro.chain.store.snapshots`.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Callable

from repro.chain.block import Block, make_genesis_block
from repro.chain.commit import replay_block
from repro.chain.ledger import Entry, Ledger
from repro.chain.state import WorldState
from repro.chain.store.base import Degradation, RecoveredChain, RecoveryReport
from repro.chain.store.codec import CodecError, decode_record, encode_record
from repro.chain.store.log import BlockLog, LogRecord
from repro.chain.store.snapshots import list_snapshots, load_snapshot, write_snapshot
from repro.errors import InvalidBlockError
from repro.obs import MetricsRegistry
from repro.simnet.disk import SimDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.consensus.base import ConsensusEngine

__all__ = ["DurableStore"]


class _TailCorruption(Exception):
    """A decoded record failed verification; carries where and why."""

    def __init__(self, kind: str, height: int, detail: str):
        super().__init__(f"{kind} at height {height}: {detail}")
        self.kind = kind
        self.height = height
        self.detail = detail


class _SnapshotRejected(Exception):
    """The snapshot disagrees with the verified log; try the next one."""


class DurableStore:
    """Append-only log + snapshots over a fault-injectable SimDisk."""

    #: Snapshot generations kept on disk: a corrupt newest one degrades
    #: to the one before it.
    KEEP_SNAPSHOTS = 2

    def __init__(
        self,
        disk: SimDisk | None = None,
        node_id: str = "",
        snapshot_interval: int = 64,
    ):
        self.disk = disk if disk is not None else SimDisk(node_id)
        self.log = BlockLog(self.disk)
        self.snapshot_interval = snapshot_interval
        #: height -> (block_hash, payload crc32): what this store promised
        #: to keep.  Ground truth for the durability audit, never an input
        #: to recovery.
        self.acked: dict[int, tuple[str, int]] = {}
        self.last_snapshot_height = 0
        self.last_recovery: RecoveryReport | None = None
        self.reports: list[RecoveryReport] = []
        self.attach(MetricsRegistry(), node_id)

    def attach(self, registry: MetricsRegistry, node_id: str) -> None:
        self._obs = registry
        self._labels = {"peer": node_id}
        self._blocks_logged = registry.counter("store.blocks_logged", peer=node_id)
        self._log_bytes = registry.counter("store.log_bytes", peer=node_id)

    def _count(self, name: str, n: float = 1, **extra: str) -> None:
        """Count off the commit path (snapshots, recovery)."""
        self._obs.counter(name, **self._labels, **extra).inc(n)

    # -- commit path -------------------------------------------------------

    def on_commit(
        self,
        block: Block,
        validity: list[bool],
        proof: Any = None,
        errors: list[str | None] | None = None,
    ) -> None:
        """Log and fsync one committed block; on return it is acknowledged
        durable (:attr:`acked`)."""
        payload = encode_record(block, validity, errors, proof)
        self.log.append(block.height, payload)
        self.acked[block.height] = (block.block_hash, zlib.crc32(payload))
        self._blocks_logged.inc()
        self._log_bytes.inc(len(payload))

    def maybe_snapshot(self, ledger: Ledger, state: WorldState) -> bool:
        """Write a snapshot if ``snapshot_interval`` blocks have passed
        since the last one; ``True`` if one was written."""
        height = ledger.height
        if height == 0 or height - self.last_snapshot_height < self.snapshot_interval:
            return False
        written = write_snapshot(
            self.disk, height, ledger.head.block_hash, state.dump(), ledger.index.dump()
        )
        for stale in list_snapshots(self.disk)[: -self.KEEP_SNAPSHOTS]:
            self.disk.delete(stale.name)
        self.last_snapshot_height = height
        self._count("store.snapshots_written")
        self._count("store.snapshot_bytes", written)
        return True

    # -- recovery ----------------------------------------------------------

    def recover(self, engine: "ConsensusEngine | None" = None) -> RecoveredChain:
        """Rebuild ledger and state from this store's disk (the ladder in
        the module docstring); *engine* checks the proofs stored beside
        tail records."""
        report = RecoveryReport()
        self._count("store.recoveries")

        def degrade(kind: str, detail: str, height: int | None = None) -> None:
            report.degradations.append(Degradation(kind=kind, detail=detail, height=height))
            self._count("store.degradations", kind=kind)

        scan = self.log.scan()
        if scan.failure is not None:
            cut = scan.total_length - scan.valid_length
            report.truncated_bytes += cut
            degrade(scan.failure, f"log tail truncated ({cut} bytes dropped)", scan.tip + 1)
            self.log.truncate(scan.valid_length)
        records = list(scan.records)

        recovered: RecoveredChain | None = None
        while recovered is None:
            tip = records[-1].height if records else 0
            candidates = [c for c in list_snapshots(self.disk) if 1 <= c.height <= tip]
            plans: list[Any] = list(reversed(candidates)) + [None]
            corruption: _TailCorruption | None = None
            for candidate in plans:
                snap_obj = None
                if candidate is not None:
                    snap_obj = load_snapshot(self.disk, candidate)
                    if snap_obj is None:
                        degrade(
                            "snapshot-corrupt",
                            f"snapshot at height {candidate.height} failed verification",
                            candidate.height,
                        )
                        self.disk.delete(candidate.name)
                        continue
                try:
                    recovered = self._assemble(records, snap_obj, engine, report)
                    break
                except _SnapshotRejected:
                    degrade(
                        "snapshot-mismatch",
                        f"snapshot at height {candidate.height} disagrees with the log",
                        candidate.height,
                    )
                    self.disk.delete(candidate.name)
                    continue
                except _TailCorruption as exc:
                    corruption = exc
                    break
            if recovered is not None:
                break
            if corruption is None:
                # Every plan ends in full replay, which only fails via
                # _TailCorruption — reaching here means zero records and
                # zero snapshots: an empty chain.
                recovered = self._assemble([], None, engine, report)
                break
            bad = next(r for r in records if r.height == corruption.height)
            cut = self.disk.size(self.log.name) - bad.offset
            report.truncated_bytes += cut
            degrade(corruption.kind, corruption.detail, corruption.height)
            self.log.truncate(bad.offset)
            records = [r for r in records if r.height < corruption.height]

        for stale in list_snapshots(self.disk):
            if stale.height > report.recovered_height:
                self.disk.delete(stale.name)
                self._count("store.snapshots_discarded")
        self._reconcile_acked(records, report)
        if report.missing_acked:
            # A lying drive (partial flush) shortens the log *cleanly*,
            # so the scan alone cannot see the loss — only the acked map
            # can.  Record it as its own degradation so no acknowledged
            # write ever vanishes uncounted.
            heights = sorted(report.missing_acked)
            degrade(
                "acked-rollback",
                f"{len(heights)} acknowledged block(s) "
                f"{heights[0]}..{heights[-1]} did not survive recovery",
                heights[0],
            )
        self.last_snapshot_height = report.snapshot_height
        self.last_recovery = report
        self.reports.append(report)
        self._count("store.recovered_blocks", report.recovered_height)
        if report.missing_acked:
            self._count("store.missing_acked", len(report.missing_acked))
        if report.unproven_records:
            self._count("store.unproven_records", report.unproven_records)
        return recovered

    def _assemble(
        self,
        records: list[LogRecord],
        snap_obj: dict[str, Any] | None,
        engine: "ConsensusEngine | None",
        report: RecoveryReport,
    ) -> RecoveredChain:
        """Build (ledger, state) from the verified log prefix
        and an optional already-CRC-valid snapshot.  Raises
        :class:`_TailCorruption` if a record above the snapshot fails
        verification, :class:`_SnapshotRejected` if the snapshot itself
        contradicts the log."""
        tip = records[-1].height if records else 0
        snap_height = snap_obj["height"] if snap_obj is not None else 0
        tail = [r for r in records if r.height >= max(1, snap_height)]

        decoded: list[tuple[Block, list[bool], list[str | None], Any]] = []
        unproven = 0
        for record in tail:
            try:
                block, validity, errors, proof = decode_record(record.payload)
            except CodecError as exc:
                raise _TailCorruption("decode-error", record.height, str(exc)) from exc
            if block.height != record.height:
                raise _TailCorruption(
                    "height-mismatch", record.height,
                    f"record framed as {record.height} decodes to block {block.height}",
                )
            try:
                block.verify_structure()
            except InvalidBlockError as exc:
                raise _TailCorruption("structure-invalid", record.height, str(exc)) from exc
            if proof is not None and engine is not None:
                if not engine.verify_synced_block(block, proof):
                    raise _TailCorruption(
                        "certificate-invalid", record.height,
                        "stored commit certificate failed verification",
                    )
            elif proof is None:
                unproven += 1
            decoded.append((block, validity, errors, proof))

        # Linkage: snapshot anchor, then hash-chain through the tail.
        prev: Block | None = None
        for block, _, _, _ in decoded:
            if prev is None:
                if snap_obj is not None:
                    if block.height == snap_height and block.block_hash != snap_obj["block_hash"]:
                        raise _SnapshotRejected()
                elif block.prev_hash != make_genesis_block().block_hash:
                    raise _TailCorruption(
                        "linkage-broken", block.height,
                        "first record does not extend genesis",
                    )
            elif block.prev_hash != prev.block_hash:
                raise _TailCorruption(
                    "linkage-broken", block.height,
                    f"prev_hash does not match block {prev.height}",
                )
            prev = block

        # All checks passed: assemble.  Mutations only start here, so a
        # ladder retry never sees a half-built chain.
        if snap_obj is not None:
            state = WorldState.from_dump(snap_obj["state"])
            ledger = Ledger.from_recovery(
                # (block, verdicts, errors) at snap_height, verified above
                window=[decoded[0][:3]],
                base=snap_height,
                index=snap_obj["index"],
                archive=self._archive_fn(records, snap_height),
            )
            to_apply = decoded[1:]
        else:
            state = WorldState()
            ledger = Ledger()
            to_apply = decoded

        proofs: dict[int, Any] = {b.height: p for b, _, _, p in decoded}
        for block, validity, errors, _ in to_apply:
            replay_block(block, validity, errors, ledger=ledger, state=state)

        report.mode = (
            "snapshot+tail" if snap_obj is not None
            else ("full-replay" if records else "empty")
        )
        report.recovered_height = tip
        report.snapshot_height = snap_height
        report.log_records = len(records)
        report.tail_records = len(decoded)
        report.unproven_records = unproven
        return RecoveredChain(ledger=ledger, state=state, proofs=proofs, report=report)

    def _archive_fn(
        self, records: list[LogRecord], snap_height: int
    ) -> Callable[[int], Entry]:
        """Lazy loader for blocks (with their verdicts and error strings)
        below the snapshot: served straight from the scan-verified log
        records, decoded on demand (the recovered ledger keeps a bounded
        cache on top)."""
        by_height = {r.height: r for r in records if r.height < snap_height}

        def load(height: int) -> Entry:
            if height == 0:
                return make_genesis_block(), [], []
            record = by_height[height]
            self._count("store.archive_loads")
            return decode_record(record.payload)[:3]

        return load

    def _reconcile_acked(self, records: list[LogRecord], report: RecoveryReport) -> None:
        """Compare what came back against what was acknowledged durable."""
        by_height = {r.height: r for r in records}
        survivors: dict[int, tuple[str, int]] = {}
        for height, (block_hash, crc) in sorted(self.acked.items()):
            record = by_height.get(height)
            if record is None:
                report.missing_acked[height] = "record lost from log"
            elif record.crc != crc:
                report.missing_acked[height] = "record bytes differ from acknowledged write"
            else:
                survivors[height] = (block_hash, crc)
        self.acked = survivors
