"""The pluggable block-store interface.

A :class:`~repro.chain.peer.Peer` owns exactly one
:class:`BlockStore`.  The commit path calls :meth:`BlockStore.on_commit`
for every block the ledger accepted — the durable backend write-ahead
logs it and only then acknowledges durability — and
:meth:`BlockStore.maybe_snapshot` afterwards so the backend can decide
when a world-state snapshot is due.  ``Peer.restart`` calls
:meth:`BlockStore.recover`: a backend that can rebuild the chain from
its own media returns a :class:`RecoveredChain`; the in-memory backend
returns ``None``, which tells the peer to fall back to the seed
behaviour (keep the in-memory chain, replay its state from genesis).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.consensus.base import ConsensusEngine
    from repro.chain.ledger import Ledger
    from repro.chain.state import WorldState
    from repro.obs import MetricsRegistry

__all__ = ["BlockStore", "Degradation", "RecoveryReport", "RecoveredChain"]


@dataclass(frozen=True)
class Degradation:
    """One graceful step *down* the recovery ladder.

    Every degradation is counted in the obs registry (``store.degradations``
    with a ``kind`` label) and listed in the :class:`RecoveryReport`, so a
    recovery that lost anything is loud — the storage-durability invariant
    in :mod:`repro.chain.audit` fails any acked-block loss that is *not*
    matched by a reported degradation.
    """

    kind: str  # e.g. "torn-tail", "crc-mismatch", "snapshot-fallback", "full-replay"
    detail: str
    height: int | None = None


@dataclass
class RecoveryReport:
    """What one recovery did, and what it could not save."""

    mode: str = "empty"  # "snapshot+tail" | "full-replay" | "empty"
    recovered_height: int = 0
    snapshot_height: int = 0  # 0 = recovery did not use a snapshot
    log_records: int = 0  # records proven valid in the final scan
    tail_records: int = 0  # records decoded + verified above the snapshot
    truncated_bytes: int = 0  # garbage bytes cut off the log across repairs
    degradations: list[Degradation] = field(default_factory=list)
    #: heights acknowledged durable before the crash that recovery could
    #: NOT produce, with the reason — the loss is injected-fault damage
    #: and must line up with ``degradations`` (audited).
    missing_acked: dict[int, str] = field(default_factory=dict)
    #: tail records carried no consensus proof (PoA; under PBFT every
    #: block this peer decided itself or fetched below a certified tip)
    #: and were accepted on checksum + linkage alone.
    unproven_records: int = 0

    def summary(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "recovered_height": self.recovered_height,
            "snapshot_height": self.snapshot_height,
            "log_records": self.log_records,
            "tail_records": self.tail_records,
            "truncated_bytes": self.truncated_bytes,
            "degradations": [
                {"kind": d.kind, "detail": d.detail, "height": d.height}
                for d in self.degradations
            ],
            "missing_acked": dict(sorted(self.missing_acked.items())),
            "unproven_records": self.unproven_records,
        }


@dataclass
class RecoveredChain:
    """A backend's verified reconstruction of the chain."""

    ledger: "Ledger"
    state: "WorldState"
    #: height -> consensus proof for records recovery decoded, so the
    #: peer can hand its engine back the proofs of synced tips.
    proofs: dict[int, Any]
    report: RecoveryReport


class BlockStore(abc.ABC):
    """Storage backend interface — see the module docstring."""

    kind: str = "abstract"

    def attach(self, registry: "MetricsRegistry", node_id: str) -> None:
        """Bind obs counters to the owning peer's registry (optional)."""

    @abc.abstractmethod
    def on_commit(
        self,
        block: Any,
        validity: list[bool],
        proof: Any = None,
        errors: list[str | None] | None = None,
    ) -> bool:
        """Persist one committed block; ``True`` = acknowledged durable."""

    @abc.abstractmethod
    def maybe_snapshot(self, ledger: "Ledger", state: "WorldState") -> bool:
        """Write a snapshot if policy says one is due; ``True`` if written."""

    @abc.abstractmethod
    def recover(self, engine: "ConsensusEngine | None" = None) -> RecoveredChain | None:
        """Rebuild the chain from storage; ``None`` = backend has no media
        (caller keeps its in-memory ledger and replays from it)."""
