"""The commit path: the one place a block becomes state and ledger record.

Fabric's *validate* phase, once.  Every transaction of a block is judged
— live: (1) client signature / structure, (2) endorsement policy,
(3) MVCC read-set freshness against the state the earlier transactions of
the same block left behind; on replay: the verdict recorded when the
block was first committed — its write set is applied if it is valid, and
finally the block goes, with its verdicts and error strings, to
``Ledger.append``, which feeds the ledger's one transaction index
(``ChainIndex.on_commit``).  Receipts are not built here: a
:class:`~repro.chain.transaction.TxReceipt` is a function of what the
ledger now records and is read from it (``Ledger.receipt``), and the
never-downgrade rule for an id committed twice lives where the id is
bound to a position (``ChainIndex._feed``).

What is judged is a *unit* (:func:`~repro.chain.transaction.group_run`):
an untagged transaction on its own, or the members of a group — a
complete run, consecutive and in order, that hashes to the root each of
them signed.  A unit gets one verdict from one ``_judge``, reached before
any of it is applied, so a group's members are all valid or all invalid
with the failing member named; a tagged transaction anywhere else is
invalid.

Callers add only what is theirs: :meth:`Peer.commit_block
<repro.chain.peer.Peer.commit_block>` (metrics, trace span, block
store, mempool, listeners) and :meth:`LocalChain._commit
<repro.chain.local.LocalChain._commit>` commit live through
:func:`commit_block`; :class:`~repro.chain.store.durable.DurableStore`
recovery — every peer restart — replays through :func:`replay_block`.
All peers therefore derive identical state, receipts and index rows from the same
block sequence, whichever way the blocks reached them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chain.block import Block
from repro.chain.contracts.endorsement import (
    Directory, EndorsementPolicy, OwnEndorsements, check_endorsements)
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, check_signatures, group_digest, group_run
from repro.errors import EndorsementError, InvalidBlockError

__all__ = ["CommitResult", "Verdict", "commit_block", "replay_block"]


@dataclass(frozen=True)
class Verdict:
    """The commit-time judgement of one transaction."""

    valid: bool
    error: str | None = None
    #: The live check that failed: ``"signature"``, ``"endorsement"``,
    #: ``"mvcc"`` or — a group member outside its complete group —
    #: ``"incomplete"``.  ``None`` for a valid transaction and on replay.
    failed_check: str | None = None


_VALID = Verdict(True)


@dataclass(frozen=True)
class CommitResult:
    """What committing one block decided, in block order."""

    verdicts: list[Verdict]
    valid_txs: list[Transaction]
    #: One entry per group the block held, in block order: the check it
    #: failed as a whole, ``None`` if it committed (empty on replay).
    group_outcomes: list[str | None]

    @property
    def validity(self) -> list[bool]:
        return [verdict.valid for verdict in self.verdicts]

    @property
    def errors(self) -> list[str | None]:
        return [verdict.error for verdict in self.verdicts]


def _judge(
    unit: tuple[Transaction, ...],
    state: WorldState,
    policy_for: Callable[[str], EndorsementPolicy],
    directory: Directory,
    own: OwnEndorsements | None,
) -> Verdict:
    """One verdict for a unit — a transaction on its own or a complete
    group — reached before any member is applied: the client signatures
    (``check_signatures``: each distinct one verified once), the unit's
    endorsements against every member's contract policy, under the keys
    of *directory* (an endorsement in the committing peer's *own* record
    is not verified again), and every read
    set — all of them reads of what lay outside the unit — against the
    state before its first member.  A tagged member's error names its
    group and its place; an untagged transaction's is the bare message."""
    tag = unit[0].group

    def failed(position: int, error: object, check: str) -> Verdict:
        where = f"group {tag[0][:12]} member {position}: " if tag else ""
        return Verdict(False, f"{where}{error}", check)

    refused = check_signatures(unit)
    if refused is not None:
        return failed(*refused, "signature")
    digest = group_digest([tx.endorsed_digest for tx in unit])
    # The unit's endorsements, checked once per distinct policy its
    # members' contracts ask for, at the first member that asks.
    policies: dict[EndorsementPolicy, int] = {}
    for position, tx in enumerate(unit):
        policies.setdefault(policy_for(tx.contract), position)
    for policy, position in policies.items():
        try:
            check_endorsements(unit[0], policy, directory, digest, own)
        except EndorsementError as exc:
            return failed(position, exc, "endorsement")
    for position, tx in enumerate(unit):
        if not state.validate_read_set(tx.read_set):
            return failed(position, "MVCC conflict: stale read set", "mvcc")
    return _VALID


def _apply(
    block: Block,
    judge: Callable[[int], list[Verdict]],
    ledger: Ledger,
    state: WorldState,
) -> CommitResult:
    """*judge* answers for the unit that starts at a position — one
    transaction, or every member of a group — before any of it is applied."""
    # Every check that can reject the block runs before the first
    # mutation: a block that does not extend this chain must leave state
    # and ledger (its index included) exactly as they were.
    ledger.check_extends(block)
    txs = block.transactions
    result = CommitResult(verdicts=[], valid_txs=[], group_outcomes=[])
    while len(result.verdicts) < len(txs):
        start = len(result.verdicts)
        unit = judge(start)
        result.verdicts.extend(unit)
        # A live verdict over a whole run, or over a tagged transaction
        # that begins none; a replayed verdict is neither.
        if len(unit) > 1 or unit[0].failed_check == "incomplete":
            result.group_outcomes.append(unit[0].failed_check)
        for tx, verdict in zip(txs[start:], unit):
            if verdict.valid:
                state.apply_write_set(tx.write_set)
                result.valid_txs.append(tx)
    ledger.append(block, result.validity, result.errors)
    return result


def commit_block(
    block: Block,
    policy_for: Callable[[str], EndorsementPolicy],
    *,
    ledger: Ledger,
    state: WorldState,
    directory: Directory,
    own: OwnEndorsements | None = None,
) -> CommitResult:
    """Judge and commit a freshly decided *block*.

    *policy_for* maps a contract name to its endorsement policy,
    *directory* a peer id to the key its endorsements are checked
    against, and *own* is the committing peer's record of the
    endorsements it signed (:class:`~repro.chain.contracts.endorsement.OwnEndorsements`):
    the entries of the block's units leave it once they are judged.  Raises
    :class:`~repro.errors.InvalidBlockError`, having changed nothing, if
    the block is malformed or does not extend *ledger*'s head.
    """
    txs = block.transactions

    def judge(start: int) -> list[Verdict]:
        unit = group_run(txs, start)
        if unit is None:
            return [Verdict(False, "group member outside its complete group", "incomplete")]
        return [_judge(unit, state, policy_for, directory, own)] * len(unit)

    result = _apply(block, judge, ledger, state)
    if own is not None:
        own.committed(txs)
    return result


def replay_block(
    block: Block,
    validity: list[bool],
    errors: list[str | None],
    *,
    ledger: Ledger,
    state: WorldState,
) -> CommitResult:
    """Re-commit *block* under the verdicts recorded at its first commit.

    Nothing is re-verified except the block's structure and linkage;
    ``Ledger.append`` feeds the ledger's index as on the live path.
    """
    if not len(validity) == len(errors) == len(block.transactions):
        raise InvalidBlockError("recorded verdicts do not match the block's transactions")
    return _apply(
        block,
        lambda position: [Verdict(validity[position], errors[position])],
        ledger, state,
    )
