"""Consensus engine interface.

Engines plug into a :class:`~repro.chain.peer.Peer`: the peer hands them
network messages and a mempool; engines decide blocks and hand them back
via ``peer.commit_block``.  Two engines are provided — a round-robin
PoA orderer (Fabric-style ordering service) and PBFT — plus a sharded
parallel execution model layered on either (the authors' ICDCS'18
design).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.simnet.network import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chain.block import Block
    from repro.chain.peer import Peer

__all__ = ["ConsensusEngine"]


class ConsensusEngine(ABC):
    """Base class for block-ordering protocols."""

    def __init__(self) -> None:
        self.peer: "Peer | None" = None
        self.stopped = False
        #: Who may order blocks, and how many transactions one block
        #: holds; engines set both from their constructor.
        self.validators: list[str] = []
        self.max_block_txs = 500
        #: height -> (block hash, names of the quorum that decided it),
        #: kept by an engine that applies a block on the strength of
        #: votes; read by the invariant auditor.
        self.commit_certificates: dict[int, tuple[str, tuple[str, ...]]] = {}
        #: height -> the proof that certified a synced tip
        #: (:meth:`on_synced_block`), for engines whose proofs are worth
        #: keeping; served back by :meth:`sync_proof`.
        self.synced_proofs: dict[int, Any] = {}

    @property
    def quorum(self) -> int:
        """How many distinct validators it takes to decide a block — and
        to vouch for one to a peer that did not watch it being decided,
        unless enough of them have applied it (see
        :meth:`verify_synced_block`); 0 when a block carries its own
        authority (PoA's expected leader)."""
        return 0

    def attach(self, peer: "Peer") -> None:
        """Bind the engine to its peer (called by the peer itself)."""
        self.peer = peer
        self._order_wait = peer.obs.histogram("phase.order_wait", peer=peer.node_id)
        self._group_deferrals = peer.obs.counter("mempool.group_deferrals", peer=peer.node_id)

    # -- observability (see repro.obs) -------------------------------------

    def _observe_order_wait(self, batch: "list[Any]") -> None:
        """Record the ordering wait — mempool admission to proposal — for
        every transaction taken into a block.  This is the "order" phase
        of the traced lifecycle; both engines call it from their
        proposal path."""
        peer = self.peer
        if peer is None or not batch:
            return
        now = peer.sim.now
        for tx in batch:
            self._order_wait.observe(max(0.0, now - tx.timestamp))
        if len(batch) < self.max_block_txs and len(peer.mempool):
            # Room in the block and work in the pool: the entry at its
            # head is a group that did not fit and waits for the next one.
            self._group_deferrals.inc()

    @abstractmethod
    def start(self) -> None:
        """Begin participating (schedule timers, etc.)."""

    def stop(self) -> None:
        """Stop proposing; in-flight work may still complete."""
        self.stopped = True

    @abstractmethod
    def on_message(self, message: Message) -> bool:
        """Handle a consensus message; return True if it was consumed."""

    def on_transaction_admitted(self) -> None:
        """Hook: the peer admitted a new transaction to its mempool."""

    def on_block_applied(self, block: "Block") -> None:
        """Hook: the peer appended *block* to its ledger (via consensus,
        sync, or a direct offer).  Pipelined engines use this to drain
        decided-but-unapplied blocks whose gap just closed."""

    # -- sync integration (see repro.chain.sync) ---------------------------

    def verify_synced_block(self, block: "Block", proof: Any) -> bool:
        """May a block fetched by the :class:`~repro.chain.sync.SyncManager`
        — the tip of a batch whose structure and hash-chain linkage onto
        the local head the manager has already checked — be applied, and
        the batch below it with it?  Engines add their protocol-specific
        proof here (PBFT: statements for the tip signed by f+1
        validators that applied it, or by 2f+1 that applied it or voted
        for it; PoA: the expected-leader check, which the manager asks
        for every block of a batch).  The default accepts."""
        return True

    def attested_hash(self, height: int) -> str | None:
        """The block hash this replica vouches for at *height* when a
        syncing peer asks (:class:`~repro.chain.sync.SyncManager` signs
        the statement: "applied" for a height of the ledger, "voted" for
        one above it), or ``None`` if it cannot yet.  Default: the block
        it applied there, nothing else."""
        assert self.peer is not None
        ledger = self.peer.ledger
        return ledger.block(height).block_hash if 0 < height <= ledger.height else None

    def sync_proof(self, height: int) -> Any:
        """The proof this peer holds for the block at *height* — what is
        written beside it in the block store and re-verified on recovery
        (``None`` when it holds none)."""
        return self.synced_proofs.get(height)

    def on_synced_block(self, block: "Block", proof: Any) -> None:
        """Hook fired once :meth:`verify_synced_block` accepted *proof*
        for a fetched tip *block*, before the batch is committed, so
        engines can record it."""

    def on_restart(self) -> None:
        """Wipe volatile engine state after a simulated process restart
        (open rounds, vote tallies, timers) and re-arm from scratch."""

    # -- what the network harness and the auditor ask of every engine ------

    def pending_txs(self) -> set[str]:
        """Tx ids the engine holds outside the mempool (open rounds,
        decided-but-unapplied blocks); none unless it keeps rounds."""
        return set()

    def decided_heights(self) -> list[int]:
        """Heights decided locally but not yet applied; none unless the
        engine buffers decisions."""
        return []

