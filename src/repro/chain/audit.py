"""Always-on consensus invariant auditing.

:class:`InvariantAuditor` hooks a :class:`~repro.chain.network.
BlockchainNetwork` and re-verifies the safety properties the platform's
trust argument rests on — after every committed block (incremental
checks, cheap) and again at end-of-run (full-ledger forensics):

- **agreement** — no two honest peers ever commit different blocks at
  the same height, crashed peers included (a commit is permanent, so a
  peer that forked before crashing still violated safety);
- **certificate validity** — on an engine that decides by quorum, no
  block is applied on nobody's word.  A consensus-applied block has a
  commit quorum recorded: at least 2f+1 *distinct validators*, no
  non-validator name, and the certified digest is the block that
  actually committed (the invariant the validator-membership rule in
  :mod:`repro.chain.consensus.pbft` exists to protect).  A sync-applied
  block lies on the hash chain at or below a tip for which the peer
  holds statements from 2f+1 distinct validators — or from f+1 that say
  they applied it — every one of which verifies: signature, membership,
  and digest equal to the applied block's hash, when the tip is applied
  and again at end of run;
- **tx durability** — every admitted transaction is eventually committed
  or still pending in some honest mempool (catches the silent tx-drop
  where a deposed primary's in-flight round was discarded on view
  change);
- **state convergence** — the existing
  :meth:`~repro.chain.network.BlockchainNetwork.assert_convergence`
  prefix/app-hash check, surfaced as a structured violation;
- **catch-up liveness** — at end of run every live honest peer must sit
  at the network head with the identical ``state_digest()`` (a recovered
  peer that silently stays behind forever is a liveness bug, which the
  old min-height prefix check masked), and — given a fault log — every
  peer recovered or restarted at time *t* must have reached the head
  height that existed at *t* within ``sync_window`` seconds;
- **pipeline consistency** — under pipelined PBFT, an engine's
  decided-but-unapplied buffer must only ever hold heights *above* the
  applied head: a decided block at or below it means the drain logic
  lost a block or applied out of order;
- **storage durability** — on peers with a durable store
  (:class:`repro.chain.store.DurableStore`), every block the store
  acknowledged durable and that survived injected disk faults must be
  present and hash-identical in the recovered ledger, and every acked
  block that did *not* survive must be explained by a counted recovery
  degradation (torn tail, partial flush, corruption) — a silent loss of
  an acknowledged write is the one failure a durable store may never
  exhibit.  Recovered peers still re-converge via the existing catch-up
  and convergence checks;
- **group atomicity** — no honest ledger holds a valid member of a group
  (:func:`~repro.chain.transaction.create_group`) without all of its
  siblings valid, consecutive and in order in the same block: a publish
  whose draft committed but whose supply-chain record did not is the
  accountability hole the group exists to close.

Crash-*restart* faults (see :meth:`~repro.simnet.failure.
FailureSchedule.restart_at`) legitimately wipe a peer's mempool; the
auditor is told which pending tx ids were wiped and excuses exactly
those from the durability check — an injected loss, not a protocol drop.

Violations raise (or, with ``strict=False``, collect) structured
:class:`AuditViolation` errors carrying full round forensics.  The
chaos harness in :mod:`repro.simnet.chaos` generates the fault schedules
these invariants are audited under; ``benchmarks/bench_chaos_audit.py``
reports violation counts and recovery latency across seeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.transaction import group_run
from repro.errors import ChainError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.network import BlockchainNetwork
    from repro.chain.peer import Peer
    from repro.chain.transaction import Transaction
    from repro.simnet.failure import FailureEvent

__all__ = ["AuditViolation", "InvariantAuditor", "recovery_latencies"]


class AuditViolation(ChainError):
    """A consensus invariant failed, with forensics attached.

    Attributes:
        invariant: which check failed (``"agreement"``,
            ``"certificate"``, ``"durability"``, ``"convergence"``).
        height: block height the violation anchors to, if any.
        peers: node ids implicated.
        forensics: free-form structured context (digests, certificates,
            views, timestamps) for the failing round.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        height: int | None = None,
        peers: tuple[str, ...] = (),
        forensics: dict[str, Any] | None = None,
    ):
        self.invariant = invariant  # "agreement" | "certificate" | "durability" | "convergence" | "catchup" | "pipeline" | "storage" | "group"
        self.detail = detail
        self.height = height
        self.peers = tuple(peers)
        self.forensics = dict(forensics or {})
        location = f" at height {height}" if height is not None else ""
        involved = f" [{', '.join(self.peers)}]" if self.peers else ""
        super().__init__(f"invariant '{invariant}' violated{location}{involved}: {detail}")


class InvariantAuditor:
    """Continuously audits a :class:`BlockchainNetwork`'s safety invariants.

    Attach with ``auditor = InvariantAuditor(network)`` *before* driving
    traffic; the auditor registers itself on every peer's commit path and
    on the network's admission path.  ``strict=True`` (default) raises on
    the first violation; ``strict=False`` collects into ``violations``
    so chaos benchmarks can count rather than abort.
    """

    def __init__(self, network: "BlockchainNetwork", strict: bool = True):
        self.network = network
        self.strict = strict
        #: Audit counters live in the network's shared metrics registry so
        #: the exporters report them alongside peer/sync/consensus numbers.
        self._obs = network.obs
        self._blocks_audited = self._obs.counter("audit.blocks_audited")
        self._checks_run = self._obs.counter("audit.checks_run")
        self.violations: list[AuditViolation] = []
        #: tx_id -> simulated admission time, for the durability check.
        self.tracked_txs: dict[str, float] = {}
        #: pending tx ids wiped by injected crash-restarts — excused from
        #: the durability check (fault-induced loss, not a protocol drop).
        self.restart_wiped: set[str] = set()
        #: height -> {digest: first honest peer that committed it}.
        self._height_digests: dict[int, dict[str, str]] = {}
        #: node id -> [(time, height)] commit trajectory, for catch-up
        #: latency measurement (monotone in both coordinates).
        self._commit_history: dict[str, list[tuple[float, int]]] = {}
        self._watched: set[str] = set()
        network.auditors.append(self)
        for peer in network.peers:
            self.watch_peer(peer)

    # -- hook registration -------------------------------------------------

    def watch_peer(self, peer: "Peer") -> None:
        """Subscribe to *peer*'s commits (idempotent; used by join_peer)."""
        if peer.node_id in self._watched:
            return
        self._watched.add(peer.node_id)
        self._commit_history[peer.node_id] = [(self.network.sim.now, peer.ledger.height)]
        peer.commit_listeners.append(self._on_block_committed)
        peer.restart_listeners.append(self._on_peer_restarted)

    def _on_peer_restarted(self, peer: "Peer", wiped: set[str]) -> None:
        self.restart_wiped |= wiped
        self._check_storage_recovery(peer)

    def on_tx_admitted(self, tx: "Transaction") -> None:
        """Record an admitted transaction for the durability invariant."""
        self.tracked_txs.setdefault(tx.tx_id, self.network.sim.now)

    def track_tx(self, tx_id: str) -> None:
        """Manually track a tx submitted directly to a peer (bypassing
        ``BlockchainNetwork.submit``), as chaos tests do."""
        self.tracked_txs.setdefault(tx_id, self.network.sim.now)

    # -- incremental checks (after every committed block) ------------------

    def _on_block_committed(self, peer: "Peer", block: Block) -> None:
        self._blocks_audited.inc()
        self._commit_history.setdefault(peer.node_id, []).append(
            (self.network.sim.now, block.height)
        )
        if peer.byzantine:
            return  # a byzantine ledger carries no guarantees to audit
        self._check_agreement_incremental(peer, block)
        self._check_certificate(peer, block)

    def _check_agreement_incremental(self, peer: "Peer", block: Block) -> None:
        self._checks_run.inc()
        digests = self._height_digests.setdefault(block.height, {})
        digests.setdefault(block.block_hash, peer.node_id)
        if len(digests) > 1:
            self._violate(
                "agreement",
                f"honest peers committed {len(digests)} distinct blocks",
                height=block.height,
                peers=tuple(sorted(digests.values())) + (peer.node_id,),
                forensics={
                    "digests": dict(digests),
                    "latest_peer": peer.node_id,
                    "latest_digest": block.block_hash,
                    "time": self.network.sim.now,
                },
            )

    def _check_certificate(self, peer: "Peer", block: Block) -> None:
        engine = peer.engine
        if not engine.quorum:
            return  # blocks carry their own authority (e.g. PoA ordering)
        self._checks_run.inc()
        entry = engine.commit_certificates.get(block.height)
        if entry is None:
            # Applied by sync: certified itself, or chained below a tip
            # that is.  (A join_peer bootstrap replays before the peer is
            # watched; its source's records were audited.)
            proof = engine.synced_proofs.get(block.height)
            if proof is not None:
                self._check_statement_set(peer, block, proof)
            elif block.height > max(engine.synced_proofs, default=0):
                self._violate(
                    "certificate",
                    "block applied with neither a recorded commit quorum "
                    "nor a certified tip at or above it",
                    height=block.height, peers=(peer.node_id,),
                    forensics={"block_digest": block.block_hash, "time": self.network.sim.now},
                )
            return
        digest, certificate = entry
        validators = set(engine.validators)
        quorum = engine.quorum
        distinct = set(certificate)
        forensics = {
            "certificate": sorted(certificate),
            "validators": sorted(validators),
            "quorum": quorum,
            "view": getattr(engine, "view", None),
            "digest": digest,
            "block_digest": block.block_hash,
            "time": self.network.sim.now,
        }
        outsiders = distinct - validators
        if outsiders:
            self._violate(
                "certificate",
                f"certificate contains non-validator signer(s) {sorted(outsiders)}",
                height=block.height, peers=(peer.node_id,), forensics=forensics,
            )
        if len(distinct & validators) < quorum:
            self._violate(
                "certificate",
                f"only {len(distinct & validators)} distinct validator signers, "
                f"quorum is {quorum}",
                height=block.height, peers=(peer.node_id,), forensics=forensics,
            )
        if digest != block.block_hash:
            self._violate(
                "certificate",
                "certified digest does not match the committed block",
                height=block.height, peers=(peer.node_id,), forensics=forensics,
            )

    # -- end-of-run checks -------------------------------------------------

    def final_check(
        self,
        failures: list["FailureEvent"] | None = None,
        sync_window: float | None = None,
    ) -> list[AuditViolation]:
        """Run the full audit; returns (and with ``strict`` raises) violations.

        Pass the fault injector's ``log`` as *failures* (and optionally a
        *sync_window* bound in simulated seconds) to also audit per-event
        catch-up latency; without it only the end-state catch-up check
        runs.
        """
        self.check_agreement()
        self.check_certificates()
        self.check_durability()
        self.check_convergence()
        self.check_catchup(failures=failures, sync_window=sync_window)
        self.check_pipeline()
        self.check_storage(failures=failures)
        self.check_groups()
        return list(self.violations)

    def check_agreement(self) -> None:
        """Full-ledger prefix agreement across honest peers, crashed included.

        Every honest chain must be a prefix of the longest honest chain
        (prefix-of-reference implies pairwise agreement on common
        prefixes, so one reference suffices).
        """
        self._checks_run.inc()
        honest = [p for p in self.network.peers if not p.byzantine]
        if not honest:
            return
        reference = max(honest, key=lambda p: p.ledger.height)
        for peer in honest:
            if peer is reference:
                continue
            for height in range(1, peer.ledger.height + 1):
                a = reference.ledger.block(height).block_hash
                b = peer.ledger.block(height).block_hash
                if a != b:
                    self._violate(
                        "agreement",
                        f"{peer.node_id} diverges from {reference.node_id}",
                        height=height,
                        peers=(reference.node_id, peer.node_id),
                        forensics={
                            "reference_digest": a,
                            "peer_digest": b,
                            "crashed": peer.crashed,
                        },
                    )
                    break  # deeper heights on this fork add no information

    def check_certificates(self) -> None:
        """Re-validate every recorded commit quorum and re-verify every
        stored statement set on honest peers."""
        for peer in self.network.peers:
            if peer.byzantine:
                continue
            engine = peer.engine
            for height, (digest, certificate) in sorted(engine.commit_certificates.items()):
                if height <= peer.ledger.height:
                    block = peer.ledger.block(height)
                    self._check_certificate_entry(peer, height, digest, certificate, block)
            for height, proof in sorted(engine.synced_proofs.items()):
                if height <= peer.ledger.height:
                    self._check_statement_set(peer, peer.ledger.block(height), proof)

    def _check_statement_set(self, peer: "Peer", block: Block, proof: Any) -> None:
        """The statements kept for a synced tip: validators only, and
        enough of them verify for exactly the applied block."""
        self._checks_run.inc()
        signers = set(proof["signers"])
        if signers - set(peer.engine.validators) or not peer.engine.verify_synced_block(block, proof):
            self._violate(
                "certificate",
                "stored statement set names a non-validator or does not "
                "verify for the applied block",
                height=block.height,
                peers=(peer.node_id,),
                forensics={"signers": sorted(signers), "block_digest": block.block_hash},
            )

    def _check_certificate_entry(
        self, peer: "Peer", height: int, digest: str,
        certificate: tuple[str, ...], block: Block,
    ) -> None:
        self._checks_run.inc()
        engine = peer.engine
        validators = set(engine.validators)
        distinct = set(certificate)
        problems = []
        if distinct - validators:
            problems.append(f"non-validator signers {sorted(distinct - validators)}")
        if len(distinct & validators) < engine.quorum:
            problems.append(
                f"{len(distinct & validators)} validator signers < quorum {engine.quorum}"
            )
        if digest != block.block_hash:
            problems.append("certified digest mismatches committed block")
        if problems:
            self._violate(
                "certificate",
                "; ".join(problems),
                height=height,
                peers=(peer.node_id,),
                forensics={
                    "certificate": sorted(certificate),
                    "validators": sorted(validators),
                    "digest": digest,
                    "block_digest": block.block_hash,
                },
            )

    def check_durability(self) -> None:
        """Every admitted tx is committed or still pending somewhere honest.

        "Pending" covers a peer's mempool *and* its engine's open
        consensus rounds (``pending_txs``): a transaction taken into an
        in-flight proposal is retained state, not a drop.  A tx that
        appears in none of ledgers / mempools / open rounds has been
        silently lost — exactly what the seed engine did when a view
        change discarded a deposed primary's round.

        Tx ids wiped by an injected crash-*restart* are excused: losing
        a restarted node's mempool is the fault being modeled, not a
        protocol bug (the excused count is reported in forensics).
        """
        self._checks_run.inc()
        honest = [p for p in self.network.peers if not p.byzantine]
        in_flight: set[str] = set()
        for peer in honest:
            in_flight |= peer.engine.pending_txs()
        missing = [
            (tx_id, admitted_at)
            for tx_id, admitted_at in self.tracked_txs.items()
            if tx_id not in in_flight
            and not any(tx_id in p.ledger for p in honest)
            and not any(tx_id in p.mempool for p in honest)
        ]
        lost = [(t, a) for t, a in missing if t not in self.restart_wiped]
        excused = len(missing) - len(lost)
        if lost:
            self._violate(
                "durability",
                f"{len(lost)} admitted transaction(s) vanished "
                "(neither committed nor pending in any honest mempool)",
                forensics={
                    "lost": [
                        {"tx_id": tx_id, "admitted_at": admitted_at}
                        for tx_id, admitted_at in lost[:20]
                    ],
                    "lost_total": len(lost),
                    "lost_excused": excused,
                    "tracked_total": len(self.tracked_txs),
                },
            )

    def check_convergence(self) -> None:
        """State convergence (prefix + app-hash), as a structured violation."""
        self._checks_run.inc()
        try:
            self.network.assert_convergence()
        except AuditViolation:
            raise
        except ChainError as exc:
            self._violate(
                "convergence",
                str(exc),
                forensics={"heights": self.network.committed_heights()},
            )

    def check_catchup(
        self,
        failures: list["FailureEvent"] | None = None,
        sync_window: float | None = None,
    ) -> None:
        """Catch-up liveness: nobody honest and alive stays behind.

        End-state: every live honest peer must sit at the maximum honest
        height with the identical ``state_digest()``.  This is strictly
        stronger than the old min-height prefix check, which passed even
        when a recovered peer silently never caught up.

        Per-event (needs *failures*): for every ``recover`` / ``restart``
        fault at time *t*, the peer must have reached the head height
        that existed at *t*.  With *sync_window* set, it must have done
        so within that many simulated seconds.
        """
        self._checks_run.inc()
        honest = [p for p in self.network.peers if not p.byzantine]
        live = [p for p in honest if not p.crashed]
        if live:
            head = max(p.ledger.height for p in honest)
            behind = [p for p in live if p.ledger.height < head]
            if behind:
                self._violate(
                    "catchup",
                    f"{len(behind)} live honest peer(s) below head height {head}",
                    height=head,
                    peers=tuple(sorted(p.node_id for p in behind)),
                    forensics={
                        "heights": {p.node_id: p.ledger.height for p in honest},
                        "time": self.network.sim.now,
                    },
                )
            digests = {p.state.state_digest() for p in live if p.ledger.height == head}
            if len(digests) > 1:
                self._violate(
                    "catchup",
                    "live honest peers at head disagree on state_digest()",
                    height=head,
                    peers=tuple(sorted(p.node_id for p in live)),
                    forensics={
                        "digests": {
                            p.node_id: p.state.state_digest()
                            for p in live
                            if p.ledger.height == head
                        },
                    },
                )
        if failures is None:
            return
        for event, latency in self.catchup_latencies(failures):
            if latency is None:
                self._violate(
                    "catchup",
                    f"{event.target} never reached the head height that existed "
                    f"when it came back at t={event.time:g} ({event.action})",
                    peers=(event.target,),
                    forensics={"event": event, "sync_window": sync_window},
                )
            elif sync_window is not None and latency > sync_window:
                self._violate(
                    "catchup",
                    f"{event.target} took {latency:.2f}s to catch up after its "
                    f"{event.action} at t={event.time:g} (window {sync_window:g}s)",
                    peers=(event.target,),
                    forensics={
                        "event": event,
                        "latency": latency,
                        "sync_window": sync_window,
                    },
                )

    def check_pipeline(self) -> None:
        """Pipeline internal consistency on honest engines.

        A decided-but-unapplied block (commit quorum reached out of
        order) must sit strictly above the applied head; an entry at or
        below it means the commit-buffer drain lost a block or applied
        out of order.  Engines without a buffer (PoA, depth-1 PBFT with
        nothing in flight) trivially pass.
        """
        self._checks_run.inc()
        for peer in self.network.peers:
            if peer.byzantine:
                continue
            decided = peer.engine.decided_heights()
            stuck = [h for h in decided if h <= peer.ledger.height]
            if stuck:
                self._violate(
                    "pipeline",
                    f"decided-block buffer holds height(s) {stuck} at or below "
                    f"the applied head {peer.ledger.height}",
                    height=min(stuck),
                    peers=(peer.node_id,),
                    forensics={
                        "buffered_heights": decided,
                        "ledger_height": peer.ledger.height,
                    },
                )

    def check_groups(self) -> None:
        """Group atomicity on every honest ledger: a valid tagged
        transaction sits at its tag's position in a run of its whole
        group — every sibling present, in order, valid — in one block."""
        self._checks_run.inc()
        for peer in self.network.peers:
            if peer.byzantine:
                continue
            for height in range(1, peer.ledger.height + 1):
                txs = peer.ledger.block(height).transactions
                validity = peer.ledger.block_validity(height)
                judged = 0  # positions below this sit in a run already looked at
                for index, tx in enumerate(txs):
                    if tx.group is None or index < judged:
                        continue
                    run = group_run(txs, index)
                    judged = index + (len(run) if run else 1)
                    verdicts = validity[index:judged]
                    if any(verdicts) and not (run and all(verdicts)):
                        self._violate(
                            "group",
                            f"tx {tx.tx_id[:12]} is valid outside a complete, in-order, "
                            "all-valid run of its group",
                            height=height, peers=(peer.node_id,),
                            forensics={"group": tx.group, "index": index,
                                       "validity": validity},
                        )

    def check_storage(self, failures: list["FailureEvent"] | None = None) -> None:
        """Storage durability on peers with a durable store.

        Three obligations, audited per peer against the store's own
        acked map (``height -> (block_hash, payload crc)``, recorded at
        fsync time and *never* used to rebuild state, so it is
        independent ground truth):

        - every acknowledged block that survived recovery must be
          present and hash-identical in the live ledger;
        - every acknowledged block that did **not** survive must be
          explained by a recorded (and counted) degradation — a durable
          store may lose acked writes only to an injected disk fault it
          *detected*, never silently;
        - given the fault log, a peer that suffered no disk fault may
          not have lost any acknowledged write at all.

        The per-kind ``store.degradations`` counters are cross-checked
        against the recovery reports so the observability path cannot
        drift from the forensics path.
        """
        self._checks_run.inc()
        disk_faulted = {
            e.target for e in (failures or []) if e.action.startswith("disk-")
        }
        for peer in self.network.peers:
            if peer.byzantine:
                continue
            store = peer.store
            acked = getattr(store, "acked", None)
            if acked is None:
                continue  # in-memory backend: nothing durable to audit
            self._check_acked_in_ledger(peer, acked)
            reports = list(getattr(store, "reports", ()))
            lost = sum(len(r.missing_acked) for r in reports)
            degraded = sum(len(r.degradations) for r in reports)
            if lost and not degraded:
                self._violate(
                    "storage",
                    f"{lost} acknowledged block(s) lost with no recorded degradation",
                    peers=(peer.node_id,),
                    forensics={"reports": [r.summary() for r in reports]},
                )
            if lost and failures is not None and peer.node_id not in disk_faulted:
                self._violate(
                    "storage",
                    f"{lost} acknowledged block(s) lost although no disk fault "
                    "was injected on this peer",
                    peers=(peer.node_id,),
                    forensics={"reports": [r.summary() for r in reports]},
                )
            counted = sum(
                c.value
                for c in self._obs.counters("store.degradations")
                if c.labels.get("peer") == peer.node_id
            )
            if counted < degraded:
                self._violate(
                    "storage",
                    f"recovery reports list {degraded} degradation(s) but only "
                    f"{counted:g} were counted in store.degradations",
                    peers=(peer.node_id,),
                    forensics={"counted": counted, "reported": degraded},
                )

    def _check_storage_recovery(self, peer: "Peer") -> None:
        """Incremental storage audit, run the moment a peer restarts
        through its store (before sync can paper over a bad recovery)."""
        store = peer.store
        report = getattr(store, "last_recovery", None)
        if report is None:
            return  # in-memory backend, or the store has never recovered
        self._checks_run.inc()
        self._check_acked_in_ledger(peer, store.acked)
        if report.missing_acked and not report.degradations:
            self._violate(
                "storage",
                f"recovery lost {len(report.missing_acked)} acknowledged "
                "block(s) without recording a degradation",
                peers=(peer.node_id,),
                forensics={"report": report.summary()},
            )

    def _check_acked_in_ledger(
        self, peer: "Peer", acked: dict[int, tuple[str, int]]
    ) -> None:
        for height, (block_hash, _crc) in sorted(acked.items()):
            actual = (
                peer.ledger.block(height).block_hash
                if 0 < height <= peer.ledger.height
                else None
            )
            if actual != block_hash:
                self._violate(
                    "storage",
                    "block acknowledged durable is missing or differs after recovery",
                    height=height,
                    peers=(peer.node_id,),
                    forensics={
                        "acked_hash": block_hash,
                        "ledger_hash": actual,
                        "ledger_height": peer.ledger.height,
                    },
                )

    def catchup_latencies(
        self, failures: list["FailureEvent"]
    ) -> list[tuple["FailureEvent", float | None]]:
        """For each recover/restart fault, time until the peer reached the
        head height that existed at the moment it came back.

        Only honest watched peers are measured (a byzantine node is under
        no obligation to catch up).  Latency is ``0.0`` when the peer was
        already at the then-head at recovery time, ``None`` when the run
        ended before it got there.
        """
        honest_ids = {p.node_id for p in self.network.peers if not p.byzantine}
        out: list[tuple[FailureEvent, float | None]] = []
        for event in failures:
            if event.action not in ("recover", "restart"):
                continue
            if event.target not in honest_ids or event.target not in self._commit_history:
                continue
            target_height = self._head_height_at(event.time)
            reached = self._reached_height_at(event.target, target_height, event.time)
            out.append((event, reached - event.time if reached is not None else None))
        return out

    def _head_height_at(self, time: float) -> int:
        """Max honest height on record at simulated *time*."""
        byzantine = {p.node_id for p in self.network.peers if p.byzantine}
        head = 0
        for node_id, history in self._commit_history.items():
            if node_id in byzantine:
                continue
            for t, height in history:
                if t > time:
                    break
                head = max(head, height)
        return head

    def _reached_height_at(
        self, node_id: str, height: int, not_before: float
    ) -> float | None:
        """Earliest time ≥ *not_before* at which *node_id* had *height*."""
        for t, h in self._commit_history[node_id]:
            if h >= height and t >= not_before:
                return t
            if h >= height and t < not_before:
                return not_before  # already there when it came back
        return None

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Counters for benchmark tables."""
        by_invariant: dict[str, int] = {}
        for violation in self.violations:
            by_invariant[violation.invariant] = by_invariant.get(violation.invariant, 0) + 1
        return {
            "blocks_audited": self._blocks_audited.value,
            "checks_run": self._checks_run.value,
            "txs_tracked": len(self.tracked_txs),
            "restart_wiped": len(self.restart_wiped),
            "violations": len(self.violations),
            "violations_by_invariant": by_invariant,
        }

    def _violate(
        self,
        invariant: str,
        detail: str,
        *,
        height: int | None = None,
        peers: tuple[str, ...] = (),
        forensics: dict[str, Any] | None = None,
    ) -> None:
        violation = AuditViolation(
            invariant, detail, height=height, peers=peers, forensics=forensics
        )
        self.violations.append(violation)
        self._obs.counter("audit.violations", invariant=invariant).inc()
        if self.strict:
            raise violation


def recovery_latencies(
    network: "BlockchainNetwork", failures: list["FailureEvent"]
) -> list[tuple["FailureEvent", float | None]]:
    """For each injected fault, time until the next honest commit.

    Measures how quickly consensus regains liveness after each
    crash/partition/chaos event: the gap between the fault firing and the
    first block committed by any honest peer afterwards (``None`` if the
    run ended first).  Heal/recover events are included — their latency
    shows the cost of catching up.
    """
    commit_times = sorted(
        t
        for peer in network.peers
        if not peer.byzantine
        for t in network.obs.histogram("peer.commit_time", peer=peer.node_id).values
    )
    out: list[tuple[FailureEvent, float | None]] = []
    for event in failures:
        after = next((t for t in commit_times if t > event.time), None)
        out.append((event, after - event.time if after is not None else None))
    return out
