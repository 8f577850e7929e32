"""PBFT as a transition function: one replica's protocol state and rules.

:class:`PBFTCore` holds what a replica knows — its view, a round table
per ``(view, height)``, its locks, the decided blocks waiting for the gap
below them, and the view-change votes — and takes one typed input at a
time: a message from ``src`` (:class:`PrePrepare`, :class:`Prepare`,
:class:`Commit`, :class:`ViewChange`), a block the ledger took
(:meth:`~PBFTCore.applied`), a view-timer expiry (:meth:`~PBFTCore.timeout`)
or a proposal (:meth:`~PBFTCore.propose`).  Each input returns the
effects, in order — :class:`Broadcast`, :class:`Apply`, :class:`Requeue`,
:class:`LagHint`, :class:`RoundEvent`, :class:`Count` — and the driver
(:class:`~repro.chain.consensus.pbft.PBFTEngine`) turns them into
messages, commits and metrics.  The core has no clock, no
network and no mempool; it mutates its tables in place, and
:meth:`~PBFTCore.copy` gives a twin to branch from
(``tests/chain/test_pbft_explore.py`` runs four cores over every delivery
order).  An :class:`Apply` is always the last effect of its input: the
driver commits the block, and the ledger's hook feeds it back as
:meth:`~PBFTCore.applied`, which may apply the next decided block.

**Pre-prepare, prepare, commit.**  The primary of view v
(``validators[v % n]``) proposes a block at a height; a replica that
accepts it broadcasts a prepare for its digest; with 2f+1 prepares for
that digest it broadcasts a commit; with 2f+1 commits the block is
decided.  Quorums are 2f+1 *distinct validators*: a vote from any other
``src`` is counted as rejected and dropped, and a replica that is not a
validator (an observer) never votes — it decides from the commit quorum it
hears.  A vote counts only for the digest it names: one that arrives
before the pre-prepare is stashed with that digest and counted, or
dropped, when the pre-prepare installs the round's digest.

**Pipelining.**  Up to ``pipeline_depth`` heights are open per view
(Castro–Liskov's watermark window): the primary chains each proposal onto
the digest of the in-flight proposal below it (:meth:`~PBFTCore.open_heights`).
Heights may decide out of order; a decision above the next height waits
in :attr:`~PBFTCore.decided` and is applied — after a parent check — the
moment the gap below closes, so application is strictly in height order.

**The lock.**  The block a replica votes commit for at height h is a lock
it keeps — across view changes and restarts, as stable storage, exactly as
``view`` is — until h is applied.  While locked it refuses a pre-prepare
for any other digest at h in any view, and as primary it re-proposes
exactly that block.  The argument: a decision at h needs 2f+1 commit
votes, so at least f+1 honest replicas are locked on the decided digest;
every other digest can then gather at most 2f prepares, never a prepare
quorum, so no honest replica votes commit for it and it is decided
nowhere — even though the view change carries no prepared certificate.
The lock is released when h is applied (by consensus or sync) and lapses
when the applied block at h−1 is not its parent: such a block extends a
proposal that lost its height, so no honest replica can ever apply it
(for the same reason a replica casts no commit vote, and so takes no
lock, for a block at the very next height that does not extend its
applied head).  Known limit: two honest replicas locked on *different*
digests at h (each saw a prepare quorum in a different view, neither
digest was decided) plus one silent validator leave every proposal at h
one prepare short, and the height stalls until the silent validator
returns and a locked primary's turn comes round.  The exhaustive explorer
reaches that state (``test_liveness_corner_is_reachable``);
Tendermint's unlock-on-newer-quorum, or the full new-view certificate,
is the cure, as an edit to this module.

Simplifications relative to Castro & Liskov, documented here because they
matter when reading experiment results:

- Channels are authenticated by the simulator (a message's ``src`` is
  trusted), so **no consensus message is signed**: pre-prepare, prepare,
  commit and view-change votes are membership-checked and digest-matched,
  and the new-view proof is replaced by the lock above.
- **A certificate is signed when someone needs it.**  What a replica keeps
  per consensus-applied height is the name set of the 2f+1 commit votes
  (the :class:`Apply` effect's ``certificate``).  What it can hand to a
  peer that was not there is a signed statement, in one of two forms, made
  by the sync manager: ``sync-announce|node|height|hash`` says *I applied
  this block*; ``sync-voted|node|height|hash`` says *I voted commit for it
  and my applied head is its parent* (:meth:`~PBFTCore.voted`): a vote
  says nothing about what lies below the block, and whoever fetches it
  takes everything below a certified tip on the strength of the hash
  chain, so a lock deeper in the pipeline vouches for nothing until the
  gap under it has closed.  f+1 "applied" statements certify a tip (one
  signer is honest, and an honest replica applies only decided or
  certified blocks), as do 2f+1 statements of either form (f+1 honest
  replicas applied it or are locked on it over a settled chain, so by the
  argument above no other block can be decided there).
- Round state is bounded: votes are dropped outside a view window
  (``[view, view + VIEW_WINDOW]``) and height window
  (``(head, head + height_window]``, where ``height_window`` grows with
  ``pipeline_depth``); rounds of deposed views are dropped at a view
  change, and a deposed primary's taken-but-uncommitted transactions
  across the *whole* window are re-queued (those of a block it is locked
  on stay with the lock).
- Checkpointing is replaced by the two things it exists for: round state
  is pruned once a height is applied (the ledger is the checkpoint), and a
  transferable proof of the chain up to any height is f+1 "applied"
  statements for that height, asked for when wanted.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Iterator, Sequence

from repro.chain.block import Block

__all__ = [
    "PBFTCore", "Round", "max_faulty", "quorum_size", "primary_of",
    "PrePrepare", "Prepare", "Commit", "ViewChange",
    "Broadcast", "Apply", "Requeue", "LagHint", "RoundEvent", "Count",
]


# -- membership: what follows from the validator list alone ----------------


def max_faulty(n: int) -> int:
    """f: how many of *n* validators may be faulty (n >= 3f + 1)."""
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """2f + 1: any two quorums of *n* validators share an honest one."""
    return 2 * max_faulty(n) + 1


def primary_of(validators: Sequence[str], view: int) -> str:
    """The primary of *view*: the validators take turns."""
    return validators[view % len(validators)]


# -- messages: the wire form is their ``kind`` and their fields by name ------


@dataclass(frozen=True, slots=True)
class PrePrepare:
    view: int
    height: int
    block: Block
    kind: ClassVar[str] = "pbft-pre-prepare"


@dataclass(frozen=True, slots=True)
class Prepare:
    view: int
    height: int
    digest: str
    kind: ClassVar[str] = "pbft-prepare"


@dataclass(frozen=True, slots=True)
class Commit:
    view: int
    height: int
    digest: str
    kind: ClassVar[str] = "pbft-commit"


@dataclass(frozen=True, slots=True)
class ViewChange:
    new_view: int
    kind: ClassVar[str] = "pbft-view-change"


# -- effects: what an input asks of the driver, carried out in order -------


@dataclass(frozen=True, slots=True)
class Broadcast:
    """Send *message* to every other node."""
    message: PrePrepare | Prepare | Commit | ViewChange


@dataclass(frozen=True, slots=True)
class Apply:
    """Commit *block*, decided in *view* by the validators named in
    *certificate*; always the last effect of its input."""
    view: int
    block: Block
    certificate: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Requeue:
    """This replica's own proposal died: return its transactions."""
    block: Block


@dataclass(frozen=True, slots=True)
class LagHint:
    """*src* spoke of a height so far ahead that it must hold the chain
    up to *height*."""
    src: str
    height: int


@dataclass(frozen=True, slots=True)
class RoundEvent:
    """The round at ``(view, height)`` accepted its pre-prepare
    (``"opened"``), was decided and waits for the gap below it
    (``"decided"``), or left the tables without being applied:
    ``"superseded"`` (its view or height is settled) or ``"discarded"``
    (decided, but its parent lost the height)."""
    view: int
    height: int
    event: str


@dataclass(frozen=True, slots=True)
class Count:
    """One more of *metric* (``pbft.view_changes``, ``pbft.lock_refusals``,
    ``pbft.lock_reproposals``, ``pbft.votes_rejected_nonvalidator``)."""
    metric: str


@dataclass(eq=False)
class Round:
    """One ``(view, height)`` instance, from first vote until applied,
    superseded or discarded — while decided and waiting it lives in
    :attr:`PBFTCore.decided`."""

    view: int
    digest: str | None = None
    block: Block | None = None
    prepares: set[str] = field(default_factory=set)
    commits: set[str] = field(default_factory=set)
    #: ``(voter, is_commit) -> digest`` of votes that came before the
    #: pre-prepare; they count toward nothing until it installs the digest.
    early: dict[tuple[str, bool], str] = field(default_factory=dict)


class PBFTCore:
    """One replica's PBFT state; every input returns its effects."""

    #: Votes count only for views in ``[view, view + VIEW_WINDOW]`` and
    #: heights in ``(head, head + height_window]``: anything beyond is
    #: stale or unverifiable, and accepting it would let a flooder grow
    #: :attr:`rounds` without bound.  ``HEIGHT_WINDOW`` is the floor of
    #: ``height_window``, which deep pipelines widen.
    VIEW_WINDOW = 8
    HEIGHT_WINDOW = 8

    def __init__(
        self,
        validators: list[str],
        node_id: str,
        pipeline_depth: int,
        head: Block,
        view: int = 0,
        locks: dict[int, Block] | None = None,
    ):
        self.validators = list(validators)
        self.members = frozenset(validators)
        self.node_id = node_id
        #: Does this replica vote?  An observer follows, silently.
        self.voter = node_id in self.members
        self.quorum = quorum_size(len(self.validators))
        self.pipeline_depth = pipeline_depth
        self.height_window = max(self.HEIGHT_WINDOW, 2 * pipeline_depth)
        #: The block the ledger took last (:meth:`applied`).
        self.head = head
        #: Stable storage, with :attr:`locks`: a restart keeps both.
        self.view = view
        #: height -> the block this replica voted commit for, until that
        #: height is applied or the lock lapses.
        self.locks: dict[int, Block] = dict(locks or {})
        self.rounds: dict[tuple[int, int], Round] = {}
        #: height -> a decided round waiting for the gap below it.
        self.decided: dict[int, Round] = {}
        #: proposed view -> the validators that voted for it.
        self.view_votes: dict[int, set[str]] = {}
        self._out: list = []

    # -- inputs ---------------------------------------------------------------

    def receive(self, src: str, message: PrePrepare | Prepare | Commit | ViewChange) -> list:
        """A message from *src* (authenticated by the channel)."""
        self._out = out = []
        kind = type(message)
        if kind is PrePrepare:
            self._pre_prepare(src, message.view, message.height, message.block)
        elif kind is ViewChange:
            self._view_change(src, message.new_view)
        else:
            self._vote(src, message.view, message.height, message.digest, kind is Commit)
        return out

    def applied(self, block: Block) -> list:
        """The ledger took *block* — decided here, fetched by sync, or the
        head recovered after a restart: settle the rounds and locks it
        answers and apply the decided block it unblocks, if any."""
        self._out = out = []
        head = self.head = block
        for key in [k for k in self.rounds if k[1] <= head.height]:
            self._drop(self.rounds.pop(key), key[1], "superseded")
        for height in sorted(self.locks):
            lock = self.locks[height]
            # Applied, or extending a block that lost its height: such a
            # lock can be applied nowhere and never will be.
            if height <= head.height or (
                height == head.height + 1 and lock.prev_hash != head.block_hash
            ):
                del self.locks[height]
                self._requeue(lock)
        for stale in [h for h in self.decided if h <= head.height]:
            self._drop(self.decided.pop(stale), stale, "discarded")
        waiting = self.decided.pop(head.height + 1, None)
        if waiting is not None:
            self._settle(waiting, head.height + 1)
        return out

    def timeout(self, token: tuple[int, int, int], waiting: bool) -> list:
        """The view timer armed at progress *token* fired; *waiting*: the
        mempool holds work.  With work in hand and no progress since, a
        validator votes to replace the primary."""
        self._out = out = []
        # A lock is unfinished business even with nothing else in hand:
        # the views must turn until a locked primary's comes.
        busy = waiting or self.rounds or self.decided or self.locks
        if busy and self.voter and self.progress() == token:
            proposal = self.view + 1
            self._view_change(self.node_id, proposal)
            self._emit(Broadcast(ViewChange(proposal)))
        return out

    def propose(self, height: int, block: Block | None = None) -> list:
        """As primary: propose *block* at *height* (one of
        :meth:`open_heights`), or the locked block there when *block* is
        ``None`` (this exact block or nothing)."""
        self._out = out = []
        if block is None:
            block = self.locks[height]
            self._emit(Count("pbft.lock_reproposals"))
        self._emit(Broadcast(PrePrepare(self.view, height, block)))
        self._pre_prepare(self.node_id, self.view, height, block)
        return out

    def withhold(self, height: int, block: Block) -> None:
        """An equivocating primary's round: it holds *block* (so its
        transactions come back when the round dies) and votes for nothing."""
        self._round(self.view, height).block = block

    # -- queries --------------------------------------------------------------

    def primary(self, view: int) -> str:
        return primary_of(self.validators, view)

    def progress(self) -> tuple[int, int, int]:
        """What the stall check counts as progress: the applied head and
        the decided buffer's shape (a replica deciding beyond a gap is
        making pipelined progress, not stalling)."""
        return self.head.height, len(self.decided), max(self.decided, default=-1)

    def open_heights(self) -> Iterator[tuple[int, str | None]]:
        """As primary: the heights of the pipeline window that still want a
        proposal in this view, lowest first, each with the digest a new
        block there chains onto — the head, or the decided or proposed
        block one below — or with ``None`` where this replica is locked
        (:meth:`propose` it with no block).  Decided and proposed heights
        are skipped; the walk ends at a hole, a height with nothing below
        it to chain onto.  Lazy: each height is judged after whatever was
        proposed below it."""
        base = self.head.height
        for height in range(base + 1, base + self.pipeline_depth + 1):
            rnd = self.rounds.get((self.view, height))
            if height in self.decided or (rnd is not None and rnd.digest is not None):
                continue
            below = self.decided.get(height - 1) or self.rounds.get((self.view, height - 1))
            parent = self.head.block_hash if height == self.head.height + 1 else below and below.digest
            locked = height in self.locks
            if not locked and parent is None:
                return
            yield height, None if locked else parent

    def voted(self, height: int) -> str | None:
        """The block this replica voted commit for at *height*, if its
        parent is the applied head — only then can the vote vouch for it."""
        lock, head = self.locks.get(height), self.head
        if lock is not None and (height, lock.prev_hash) == (head.height + 1, head.block_hash):
            return lock.block_hash
        return None

    def copy(self) -> PBFTCore:
        """A twin to branch from: tables copied, blocks shared."""
        twin = copy.copy(self)
        twin.rounds = {
            key: replace(rnd, prepares=set(rnd.prepares), commits=set(rnd.commits),
                         early=dict(rnd.early))
            for key, rnd in self.rounds.items()
        }
        twin.locks, twin.decided = dict(self.locks), dict(self.decided)
        twin.view_votes = {view: set(votes) for view, votes in self.view_votes.items()}
        return twin

    # -- transitions ----------------------------------------------------------

    def _emit(self, effect: Any) -> None:
        self._out.append(effect)

    def _member(self, src: str) -> bool:
        """Only validators vote; anyone else's vote is counted and dropped."""
        if src in self.members:
            return True
        self._emit(Count("pbft.votes_rejected_nonvalidator"))
        return False

    def _refuses(self, height: int, block: Block) -> bool:
        """Locked on another block at *height*, in whatever view: it may
        be decided elsewhere, so nothing else gets this replica's vote."""
        lock = self.locks.get(height)
        return lock is not None and lock.block_hash != block.block_hash

    def _round(self, view: int, height: int) -> Round:
        rnd = self.rounds.get((view, height))
        if rnd is None:
            rnd = self.rounds[view, height] = Round(view)
        return rnd

    def _pre_prepare(self, src: str, view: int, height: int, block: Block) -> None:
        if view != self.view or src != self.primary(view) or height <= self.head.height:
            return
        if height > self.head.height + self.pipeline_depth:
            # Beyond our pipeline window: we missed blocks, or the primary
            # misbehaves; either way the sync manager should look.
            self._emit(LagHint(src, height - 1))
            return
        if self._refuses(height, block):
            self._emit(Count("pbft.lock_refusals"))
            return
        if height in self.decided:
            return
        rnd = self._round(view, height)
        if rnd.digest is None:
            rnd.digest = block.block_hash
            self._emit(RoundEvent(view, height, "opened"))
        elif rnd.digest != block.block_hash:
            return  # the primary equivocated to us; keep the first
        rnd.block = block
        for (voter, commit), digest in rnd.early.items():
            if digest == rnd.digest:
                (rnd.commits if commit else rnd.prepares).add(voter)
        rnd.early.clear()
        if self.voter and self.node_id not in rnd.prepares:
            rnd.prepares.add(self.node_id)
            self._emit(Broadcast(Prepare(view, height, rnd.digest)))
        self._advance(rnd, height)

    def _vote(self, src: str, view: int, height: int, digest: str, commit: bool) -> None:
        if not self._member(src):
            return
        head = self.head.height
        if height > head + self.pipeline_depth:
            # Inside the window a vote ahead is routine pipelining; beyond
            # it, a validator's vote implies a longer chain than ours.
            self._emit(LagHint(src, height - 1))
        if not (
            self.view <= view <= self.view + self.VIEW_WINDOW
            and head < height <= head + self.height_window
        ) or height in self.decided:
            return
        rnd = self._round(view, height)
        if rnd.digest is None:
            rnd.early[src, commit] = digest
        elif digest == rnd.digest:
            (rnd.commits if commit else rnd.prepares).add(src)
            self._advance(rnd, height)

    def _advance(self, rnd: Round, height: int) -> None:
        head = self.head
        if (
            self.voter
            and self.node_id not in rnd.commits
            and len(rnd.prepares) >= self.quorum
            # No vote, hence no lock, for a block that can never extend
            # this chain: the lock would hold the height for good.
            and (height != head.height + 1 or rnd.block.prev_hash == head.block_hash)
        ):
            rnd.commits.add(self.node_id)
            self.locks[height] = rnd.block
            self._emit(Broadcast(Commit(rnd.view, height, rnd.digest)))
        # An observer casts no vote of its own; the quorum it hears decides.
        if (self.node_id in rnd.commits or not self.voter) and len(rnd.commits) >= self.quorum:
            del self.rounds[rnd.view, height]
            if height == head.height + 1:
                self._settle(rnd, height)
            else:
                self.decided[height] = rnd
                self._emit(RoundEvent(rnd.view, height, "decided"))

    def _settle(self, rnd: Round, height: int) -> None:
        """The one place a decided block is applied: the next height, on
        top of the applied head.  Sync may have filled the height below
        with another block (the view changed elsewhere); then the decided
        block can never extend this chain and is discarded."""
        if rnd.block.prev_hash == self.head.block_hash:
            self._emit(Apply(rnd.view, rnd.block, tuple(sorted(rnd.commits))))
        else:
            self._drop(rnd, height, "discarded")

    def _drop(self, rnd: Round, height: int, outcome: str) -> None:
        self._emit(RoundEvent(rnd.view, height, outcome))
        if rnd.block is not None:
            self._requeue(rnd.block)

    def _requeue(self, block: Block) -> None:
        """A dead proposal of ours returns its transactions — unless we
        are locked on it, when they stay with the lock until it goes."""
        lock = self.locks.get(block.height)
        if block.proposer == self.node_id and (lock is None or lock.block_hash != block.block_hash):
            self._emit(Requeue(block))

    def _view_change(self, src: str, new_view: int) -> None:
        if not self._member(src) or not self.view < new_view <= self.view + self.VIEW_WINDOW:
            return
        votes = self.view_votes.setdefault(new_view, set())
        votes.add(src)
        if len(votes) < self.quorum:
            return
        self.view = new_view
        self._emit(Count("pbft.view_changes"))
        for key in [k for k in self.rounds if k[0] < new_view]:
            self._drop(self.rounds.pop(key), key[1], "superseded")
        # A decided block whose parent can no longer materialise — from
        # the head, a surviving round, a lock or another decided block —
        # would refuse its height forever: discard it (if its parent did
        # commit elsewhere, it comes back by sync).
        producible = {self.head.block_hash, *(lock.block_hash for lock in self.locks.values())}
        producible.update(rnd.digest for rnd in self.rounds.values() if rnd.digest is not None)
        for height in sorted(self.decided):
            if self.decided[height].block.prev_hash in producible:
                producible.add(self.decided[height].digest)
            else:
                self._drop(self.decided.pop(height), height, "discarded")
        self.view_votes = {view: s for view, s in self.view_votes.items() if view > new_view}
