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

    def attach(self, peer: "Peer") -> None:
        """Bind the engine to its peer (called by the peer itself)."""
        self.peer = peer

    # -- observability (see repro.obs) -------------------------------------

    def _observe_order_wait(self, batch: "list[Any]") -> None:
        """Record the ordering wait — mempool admission to proposal — for
        every transaction taken into a block.  This is the "order" phase
        of the traced lifecycle; both engines call it from their
        proposal path."""
        peer = self.peer
        if peer is None or not batch:
            return
        hist = peer.obs.histogram("phase.order_wait", peer=peer.node_id)
        now = peer.sim.now
        for tx in batch:
            hist.observe(max(0.0, now - tx.timestamp))

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
        be applied?  Hash-chain linkage and structure are already checked
        by the manager; engines add their protocol-specific proof here
        (PBFT: a stored 2f+1 commit certificate; PoA: the expected-leader
        check).  The default accepts."""
        return True

    def sync_proof(self, height: int) -> Any:
        """The proof to attach when *serving* block *height* to a lagging
        peer (``None`` when the protocol needs none)."""
        return None

    def on_synced_block(self, block: "Block", proof: Any) -> None:
        """Hook fired just before a sync-fetched block is committed, so
        engines can record bookkeeping (e.g. PBFT commit certificates)."""

    def on_restart(self) -> None:
        """Wipe volatile engine state after a simulated process restart
        (open rounds, vote tallies, timers) and re-arm from scratch."""

    # -- what the network harness and the auditor ask of every engine ------

    def register_validator_keys(self, keys: dict[str, bytes]) -> None:
        """Take the validator public-key directory; an engine that signs
        nothing (PoA) ignores it."""

    def pending_txs(self) -> set[str]:
        """Tx ids the engine holds outside the mempool (open rounds,
        decided-but-unapplied blocks); none unless it keeps rounds."""
        return set()

    def decided_heights(self) -> list[int]:
        """Heights decided locally but not yet applied; none unless the
        engine buffers decisions."""
        return []

