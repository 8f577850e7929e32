"""The in-memory backend: the seed behaviour, behind the interface.

Nothing is persisted beyond the peer's own ``Ledger`` object (which the
crash model already treats as durable); recovery returns ``None`` so
``Peer.restart`` keeps that chain and replays its world state under the
recorded verdicts (``Ledger.replay_state``).  This is the
baseline the recovery benchmark compares the durable backend against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.store.base import BlockStore, RecoveredChain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.consensus.base import ConsensusEngine
    from repro.chain.ledger import Ledger
    from repro.chain.state import WorldState

__all__ = ["MemoryStore"]


class MemoryStore(BlockStore):
    """No media: commits are acknowledged trivially, recovery defers."""

    kind = "memory"

    def on_commit(
        self,
        block: Any,
        validity: list[bool],
        proof: Any = None,
        errors: list[str | None] | None = None,
    ) -> bool:
        return True

    def maybe_snapshot(self, ledger: "Ledger", state: "WorldState") -> bool:
        return False

    def recover(self, engine: "ConsensusEngine | None" = None) -> RecoveredChain | None:
        return None
