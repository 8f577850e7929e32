"""Endorsement policies: who must simulate a transaction, and how many
must agree, before it may be ordered.

The platform's two-layer trust design (§V: the distribution platform
vouches for creators, the editing platform for content) maps naturally
onto per-contract endorsement policies — e.g. the factual-database
contract can demand endorsement from a majority of fact-checker peers.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any, Sequence

from repro.chain.transaction import Endorsement, Transaction, group_digest, rwset_digest
from repro.crypto.keys import KeyPair
from repro.errors import EndorsementError

__all__ = ["EndorsementPolicy", "check_endorsements", "endorse_group"]


@dataclass(frozen=True)
class EndorsementPolicy:
    """Require *required* matching endorsements from *endorsers*.

    An empty ``endorsers`` tuple means "any peer may endorse" (the
    default policy for application contracts in a single-org deployment).
    """

    required: int = 1
    endorsers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.required < 1:
            raise EndorsementError("endorsement policy must require >= 1 endorsement")
        if self.endorsers and self.required > len(self.endorsers):
            raise EndorsementError(
                f"policy requires {self.required} endorsements but only "
                f"{len(self.endorsers)} peers are eligible"
            )

    def eligible(self, peer_id: str) -> bool:
        return not self.endorsers or peer_id in self.endorsers


def endorse_group(
    keypair: KeyPair, peer_id: str, txs: Sequence[Transaction], results: Sequence[Any]
) -> Endorsement:
    """One peer's one signature for a whole group: over the group's root
    and the rw-set digests of its members' simulated executions
    (*results*, ``ExecutionResult`` per member), in order.  A member's
    rw-set means nothing without the writes of the members before it, so
    there is nothing smaller for an endorser to vouch for."""
    digest = group_digest(rwset_digest(r.read_set, r.write_set) for r in results)
    return Endorsement.create(keypair, peer_id, txs[0].endorsed_id, digest)


def check_endorsements(
    tx: Transaction, policy: EndorsementPolicy, digest: str | None = None
) -> None:
    """Validate a transaction's endorsements against *policy*.

    Checks: enough endorsements, each from an eligible distinct peer,
    each signature valid, and every endorsement committing to the same
    read/write-set digest the transaction carries (a divergent digest
    means endorsers simulated different outcomes — the transaction must
    not commit).  A group is endorsed once: *tx* is then its first
    member, which carries the endorsements, and *digest* the group's
    (:func:`~repro.chain.transaction.group_digest`).
    """
    if digest is None:
        digest = tx.rwset_digest
    seen: set[str] = set()
    valid = 0
    for endorsement in tx.endorsements:
        if endorsement.peer_id in seen:
            continue
        if not policy.eligible(endorsement.peer_id):
            continue
        if endorsement.digest != digest:
            raise EndorsementError(
                f"tx {tx.tx_id[:12]}: endorser {endorsement.peer_id} signed a "
                "different rw-set (non-deterministic execution?)"
            )
        if not endorsement.verify(tx.endorsed_id):
            raise EndorsementError(
                f"tx {tx.tx_id[:12]}: bad endorsement signature from {endorsement.peer_id}"
            )
        seen.add(endorsement.peer_id)
        valid += 1
    if valid < policy.required:
        raise EndorsementError(
            f"tx {tx.tx_id[:12]}: {valid} valid endorsements, policy requires {policy.required}"
        )
