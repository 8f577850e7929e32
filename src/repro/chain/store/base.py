"""What a recovery hands back, and what it reports.

``Peer.restart`` calls :meth:`DurableStore.recover
<repro.chain.store.durable.DurableStore.recover>`, which rebuilds the
chain from the peer's own disk and returns a :class:`RecoveredChain`:
the verified ledger and state, the consensus proofs found beside the
blocks, and a :class:`RecoveryReport` listing every :class:`Degradation`
it had to take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.ledger import Ledger
    from repro.chain.state import WorldState

__all__ = ["Degradation", "RecoveryReport", "RecoveredChain"]


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
    """A store's verified reconstruction of the chain."""

    ledger: "Ledger"
    state: "WorldState"
    #: height -> consensus proof for records recovery decoded, so the
    #: peer can hand its engine back the proofs of synced tips.
    proofs: dict[int, Any]
    report: RecoveryReport

