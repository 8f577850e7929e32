"""Endorsement policies: who must simulate a transaction, and how many
must agree, before it may be ordered.

The platform's two-layer trust design (§V: the distribution platform
vouches for creators, the editing platform for content) maps naturally
onto per-contract endorsement policies — e.g. the factual-database
contract can demand endorsement from a majority of fact-checker peers.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any, Iterable, Sequence

from repro.chain.transaction import Endorsement, Transaction
from repro.errors import ContractError, EndorsementError

__all__ = ["EndorsementPolicy", "Endorsed", "check_endorsements", "gather_endorsements"]

#: One endorser's answer for a unit: its signature (``None`` when the
#: simulation aborted — an abort is not signed), the ``ExecutionResult``
#: of every member it ran (an aborted one last) and the rw-set digests it
#: hashed to sign, in member order.
Endorsed = tuple[Endorsement | None, list[Any], list[str]]


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


def gather_endorsements(
    txs: Sequence[Transaction], outcomes: Iterable[Endorsed | None], required: int
) -> tuple[Transaction, ...]:
    """Take the endorsers' *outcomes* in turn — ``None`` from one that is
    down or ineligible — until *required* of them signed the same digest,
    and attach the first successful execution to *txs*: every member gets
    its rw-set, events, return value and the digest the endorser hashed;
    the first carries the unit's endorsements, the rest none.  *outcomes*
    may be lazy: nobody is asked once enough have signed.

    Raises :class:`ContractError` with the abort's message when no
    endorser ran the unit to its end, :class:`EndorsementError` when too
    few agreed.
    """
    endorsements: list[Endorsement] = []
    reference = None
    failure: str | None = None
    for outcome in outcomes:
        if outcome is None:
            continue
        endorsement, results, digests = outcome
        if endorsement is None:
            failure = results[-1].error
            continue
        if reference is None:
            reference = results, digests
            endorsements.append(endorsement)
        elif endorsement.digest == endorsements[0].digest:
            endorsements.append(endorsement)
        if len(endorsements) >= required:
            break
    if reference is None or len(endorsements) < required:
        what = "+".join(f"{tx.contract}.{tx.method}" for tx in txs)
        if reference is None:
            raise ContractError(failure or f"no peer could endorse {what}")
        raise EndorsementError(
            f"only {len(endorsements)} endorsements for {what}, "
            f"policy requires {required}"
        )
    return tuple(
        tx.with_execution(
            result.read_set, result.write_set, result.events, result.return_value,
            tuple(endorsements) if position == 0 else (), digest=digest,
        )
        for position, (tx, result, digest) in enumerate(zip(txs, *reference))
    )


def check_endorsements(
    tx: Transaction, policy: EndorsementPolicy, digest: str | None = None
) -> None:
    """Validate a transaction's endorsements against *policy*.

    Checks: enough endorsements, each from an eligible distinct peer,
    each signature valid, and every endorsement committing to the same
    read/write-set digest the transaction carries (a divergent digest
    means endorsers simulated different outcomes — the transaction must
    not commit).  A unit is endorsed once: *tx* is its first member,
    which carries the endorsements, and *digest* the unit's
    (:func:`~repro.chain.transaction.group_digest`; for a transaction on
    its own, its rw-set digest, the default).
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
