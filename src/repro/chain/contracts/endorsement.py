"""Endorsement policies: who must simulate a transaction, and how many
must agree, before it may be ordered.

The platform's two-layer trust design (§V: the distribution platform
vouches for creators, the editing platform for content) maps naturally
onto per-contract endorsement policies — e.g. the factual-database
contract can demand endorsement from a majority of fact-checker peers.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any, Iterable, Mapping, Sequence

from repro.chain.transaction import Endorsement, Transaction
from repro.errors import ContractError, EndorsementError

__all__ = [
    "Directory", "EndorsementPolicy", "Endorsed", "OwnEndorsements", "check_endorsements",
    "gather_endorsements",
]

#: One endorser's answer for a unit: its signature (``None`` when the
#: simulation aborted — an abort is not signed), the ``ExecutionResult``
#: of every member it ran (an aborted one last) and the endorsed digests it
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


#: Peer id -> Ed25519 public key: the only keys a committing peer checks
#: an endorsement against.
Directory = Mapping[str, bytes]

#: How many of its own endorsements a peer remembers.  An entry leaves
#: when its unit commits on that peer; past this many the oldest goes
#: first (a unit endorsed and never submitted), and a unit whose entry
#: went is checked like anyone else's.
OWN_RECORD_LIMIT = 1024


class OwnEndorsements:
    """The endorsements one peer signed whose units it has not committed
    yet, by the unit's endorsed id.  An endorsement equal to its entry
    here is one this peer signed, so the peer's commit takes it without
    verifying its signature again."""

    def __init__(self) -> None:
        self._signed: dict[str, Endorsement] = {}

    def __len__(self) -> int:
        return len(self._signed)

    def add(self, endorsed_id: str, endorsement: Endorsement) -> None:
        self._signed.pop(endorsed_id, None)
        self._signed[endorsed_id] = endorsement
        if len(self._signed) > OWN_RECORD_LIMIT:
            del self._signed[next(iter(self._signed))]

    def holds(self, endorsed_id: str, endorsement: Endorsement) -> bool:
        return self._signed.get(endorsed_id) == endorsement

    def committed(self, txs: Iterable[Transaction]) -> None:
        """Forget the entries of the units *txs* belong to."""
        for tx in txs:
            endorsed_id = tx.endorsed_id
            if isinstance(endorsed_id, str):  # a forged tag's root may be anything
                self._signed.pop(endorsed_id, None)


def check_endorsements(
    tx: Transaction,
    policy: EndorsementPolicy,
    directory: Directory,
    digest: str | None = None,
    own: OwnEndorsements | None = None,
) -> None:
    """Raise :class:`EndorsementError` unless *policy* ``required`` of
    the unit's endorsements hold.  A unit is endorsed once: *tx* is its
    first member, which carries the endorsements, and *digest* the unit's
    (:func:`~repro.chain.transaction.group_digest`; for a transaction on
    its own, its endorsed digest, the default).

    An endorsement holds when, in this order, its peer is eligible, is
    counted once and is in *directory*; it signed *digest* — the unit's
    reads, writes, events and return value, so an output edited after
    endorsement fails here, before any curve work; and it is the
    committing peer's own (equal to its entry in *own*) or its signature
    verifies under the directory's key for its peer.  One that does not
    hold is not counted, and nothing is checked once enough hold: an
    endorsement appended to an endorsed unit can neither carry nor veto
    it.  The error names why the first uncounted endorsement failed.
    """
    if digest is None:
        digest = tx.endorsed_digest
    counted: set[str] = set()
    refusal: str | None = None
    for endorsement in tx.endorsements:
        if len(counted) >= policy.required:
            return
        peer_id = endorsement.peer_id
        if not isinstance(peer_id, str):  # a client's object: it may hold anything
            reason = "malformed endorsement"
        elif peer_id in counted or not policy.eligible(peer_id):
            continue
        elif (key := directory.get(peer_id)) is None:
            reason = f"endorser {peer_id} is not a known peer"
        elif endorsement.digest != digest:
            reason = (f"endorser {peer_id} signed a different execution "
                      "(non-deterministic or edited after endorsement?)")
        elif (own is not None and own.holds(tx.endorsed_id, endorsement)) or endorsement.verify(
                tx.endorsed_id, key):
            counted.add(peer_id)
            continue
        else:
            reason = f"bad endorsement signature from {peer_id}"
        refusal = refusal or reason
    if len(counted) < policy.required:
        raise EndorsementError(f"tx {tx.tx_id[:12]}: " + (refusal or (
            f"{len(counted)} valid endorsements, policy requires {policy.required}")))
