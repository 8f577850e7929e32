"""Block sync as a transition function: one peer's fetch state and rules.

:class:`SyncCore` holds what a lagging peer knows about catching up and
nothing else — the heights other nodes have claimed, the strikes against
each provider and the count of failed rounds in a row, the one in-flight
request and the batch it holds, the statements kept per validator, the
PoA future buffer, and where the current lag started.  It takes typed
inputs one at a time: a height claim (:meth:`~SyncCore.claim`), a
statement whose signature the driver has verified
(:meth:`~SyncCore.statement`), a provider's answer
(:meth:`~SyncCore.response`), a timer firing with its token
(:meth:`~SyncCore.fire`), a block the ledger took
(:meth:`~SyncCore.applied`), a block offered with its own authority
(:meth:`~SyncCore.offer`), and a halt or restart.  Each returns its effects
in order — :class:`Request`, :class:`AttestRequest`, :class:`Apply`,
:class:`Forget`, :class:`Schedule`, :class:`Closed`, :class:`LagStart`,
:class:`CaughtUp`, :class:`Count` — and the driver
(:class:`~repro.chain.sync.SyncManager`) turns them into messages, timers,
commits and metrics.  The core has no clock, no network and no keys: the
certificate verdict is the engine's
(:meth:`~repro.chain.consensus.base.ConsensusEngine.verify_synced_block`),
this peer's own statement for a tip is the driver's, and whether the peer
is down is the driver's to say — three callables given to the
constructor.  :meth:`~SyncCore.copy` gives a twin to branch from
(``tests/chain/test_sync_explore.py`` runs one over every delivery order).

**Apply.**  There is one apply path: :class:`Apply` carries a fetched
batch with the proof that certified its tip, or a PoA block with none,
and it is always the last effect of its input.  The driver commits the
blocks — the ledger hands each back as :meth:`~SyncCore.applied`, and so
does every block consensus decides — and then calls
:meth:`~SyncCore.settled`, which applies the next buffered block or moves
on to the next fetch from the head the ledger actually reached.

**Lag.**  A peer learns it has fallen behind from signed statements — each
live peer announces ``(node, height, head hash)`` periodically, and the
driver checks the signature before a statement above the head reaches the
core — and from height-ahead consensus traffic, which the engine passes on
as a claim (:meth:`~SyncCore.claim`).  A validator's verified statement is
also kept: it is one signature of the certificate a fetched batch will
need, and it replaces whatever height its votes had let us guess for it.

**Fetch.**  One ranged request at a time goes to the node with the tallest
claim (rotating among equals as rounds fail), under a timeout.  A timeout
is a strike against the provider and starts an exponential backoff with
deterministic jitter; ``PROVIDER_PATIENCE`` strikes in a row forget the
provider's claim — the failover, which also defuses phantom heights a
byzantine node claimed.  Only the provider that was asked can answer a
request: an answer from anyone else is counted as stale and changes
nothing, so a third node cannot get an honest provider blamed.

**Verify before apply.**  A response carries blocks and nothing else.
The whole batch is checked for structure and hash-chain linkage onto the
head — and, where a block carries its own authority (PoA's expected
leader; the engine's ``quorum`` is 0), each block against the engine —
and then held, the request still in flight under its timer, until the
engine accepts a proof for its *tip*: for PBFT statements for exactly that
``(height, hash)``, f+1 validators that applied it or 2f+1 that applied it
or voted commit for it, the hash chain covering every block below.  A
statement has two forms: *applied* — the periodic announcement is one, for
the head — and *voted*, which a validator gives only for the block right
above its applied head.  The statements come from the verified
announcements — on an idle chain everyone announces the same head and no
further message is needed — and otherwise from the validators themselves:
every validator whose word on the tip is missing is asked
(:class:`AttestRequest`), and asked again every ``BACKOFF_BASE`` until the
batch is settled; a validator that can vouch for nothing there yet says
nothing, and statements already received are kept across retries.  Three
rules settle a held batch:

- **certified** — the engine accepts the proof: :class:`Apply`;
- **refuted** — so many validators vouch for another block at the tip's
  height that the rest cannot reach the quorum: the provider is dropped
  at once and nothing of its batch is applied;
- **cut** — a tip still short at the first re-ask may be one only its
  provider holds: the batch is cut down to what f+1 validators are known
  to hold, and so can call applied — or to one block, the only one a vote
  can cover — and the rest is fetched again later.

The cost of signing statements on request: a block that one replica
decided alone (its own commit votes reached nobody) can be fetched by the
others only with 2f+1 validators up, the voters among them having caught
up to its parent; every block that f+1 validators hold is available with f
down.  Blocks a PoA leader broadcasts ahead of the gap are buffered in
:attr:`SyncCore.future` (``FUTURE_WINDOW`` of them) and applied in order
once the gap closes.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.chain.block import Block

__all__ = ["SyncCore", "Statement", "Token", "Request", "AttestRequest", "Apply", "Forget",
           "Schedule", "Closed", "LagStart", "CaughtUp", "Count"]


class Statement(NamedTuple):
    """A validator's word on one block, its signature checked by the
    driver: it applied the block at *height* with *block_hash* — or,
    *voted*, voted commit for it on top of its applied head.  *signature*
    is hex, as a proof carries it."""

    height: int
    block_hash: str
    signature: str
    voted: bool


#: A timer's identity, ``(kind, req_id)``: the ``"timeout"`` or the
#: ``"reask"`` of the request *req_id*, or the ``"retry"`` its timeout started.
Token = tuple[str, str]


# -- effects: what an input asks of the driver, carried out in order -------


@dataclass(frozen=True, slots=True)
class Request:
    """Ask *provider* for the blocks from *start* up to *end* (the driver
    sends at most its batch limit of them)."""
    req_id: str
    provider: str
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class AttestRequest:
    """Ask *validator* for its statement on the block at *height*."""
    validator: str
    height: int


@dataclass(frozen=True, slots=True)
class Apply:
    """Commit *batch* in order; *proof* certified its tip (``None``: a
    block that carries its own authority).  Always the last effect of its
    input: once the blocks are in, the driver calls :meth:`SyncCore.settled`."""
    batch: tuple[Block, ...]
    proof: dict[str, Any] | None


@dataclass(frozen=True, slots=True)
class Forget:
    """*provider*'s claim is dropped: the next round fails over."""
    provider: str


@dataclass(frozen=True, slots=True)
class Schedule:
    """Fire *token* after *delay* simulated seconds, unless :class:`Closed`
    comes first."""
    token: Token
    delay: float


@dataclass(frozen=True, slots=True)
class Closed:
    """The in-flight request ended — ``"applied"``, ``"response"`` (nothing
    new), ``"overtaken"``, ``"rejected"``, ``"timeout"`` — or it, or the
    backoff after one, was ``"cancelled"``; its timers go with it."""
    outcome: str


@dataclass(frozen=True, slots=True)
class LagStart:
    """The lag clock starts, *behind* blocks short of the tallest claim."""
    behind: int


@dataclass(frozen=True, slots=True)
class CaughtUp:
    """The lag is over, *blocks* above where it started."""
    blocks: int


@dataclass(frozen=True, slots=True)
class Count:
    """One more of *metric* (``sync.timeouts``, ``sync.retries``,
    ``sync.invalid_blocks``, ``sync.stale_responses``,
    ``sync.statements_verified``, ``sync.buffered_future``, or
    ``sync.statements_rejected`` with its *reason*)."""
    metric: str
    reason: str | None = None


class SyncCore:
    """One peer's sync state; every input returns its effects."""

    #: Buffered future blocks beyond the gap (bounds memory under floods).
    FUTURE_WINDOW = 256
    #: Consecutive timeouts against one provider before failing over.
    PROVIDER_PATIENCE = 2
    #: Simulated seconds a request may go unanswered.
    REQUEST_TIMEOUT = 1.5
    #: The wait after the k-th failed round in a row is ``BACKOFF_BASE *
    #: BACKOFF_FACTOR ** (k - 1)``, at most ``BACKOFF_CAP``, stretched by up
    #: to ``JITTER``; missing statements are re-asked every ``BACKOFF_BASE``.
    BACKOFF_BASE = 0.5
    BACKOFF_FACTOR = 2.0
    BACKOFF_CAP = 8.0
    JITTER = 0.25

    def __init__(self, node_id: str, validators: list[str], quorum: int, head: Block,
                 certified: Callable[[Block, Any], bool],
                 vouch: Callable[[Block], tuple[str, bool] | None] = lambda tip: None,
                 down: Callable[[], bool] = lambda: False):
        self.node_id = node_id
        self.validators = list(validators)
        #: The engine's: 0 when a block carries its own authority.
        self.quorum = quorum
        #: The block the ledger took last (:meth:`applied`).
        self.head = head
        #: The engine's certificate rule, this validator's own
        #: ``(signature, voted)`` for a tip it applied or voted commit for
        #: (``None``: it cannot vouch for it), and "may it not fetch now?".
        self.certified, self.vouch, self.down = certified, vouch, down
        #: Draws the backoff jitter; seeded by the node, so runs repeat.
        self.rng = random.Random(f"sync:{node_id}")
        #: node id -> highest height it has credibly claimed to hold.
        self.known_heights: dict[str, int] = {}
        #: provider -> its timeouts in a row (its answer clears them); and
        #: the rounds that failed in a row (one that ends well clears them).
        self.strikes: dict[str, int] = {}
        self.failures = 0
        #: The one in-flight request: its id and provider, the batch it
        #: holds once answered (structure- and linkage-checked, until its
        #: tip is certified), and whether its statements were asked for.
        self.request: str | None = None
        self.provider, self.asked = "", False
        self.batch: list[Block] = []
        #: The request whose timeout started the backoff now running.
        self.backoff: str | None = None
        self.requests = 0
        #: ``(announced, validator)`` -> its latest verified statement, as
        #: announced and as answered (only those above the head count).
        self.statements: dict[tuple[bool, str], Statement] = {}
        #: height -> offered block, buffered until the gap below closes.
        self.future: dict[int, Block] = {}
        #: The head's height when the current lag started.
        self.lag_from: int | None = None
        #: After the pending :class:`Apply`: fetch next, or only see
        #: whether the lag is over?
        self._then = True
        self._out: list = []

    # -- inputs ---------------------------------------------------------------

    def claim(self, src: str, height: int, own_word: bool = False) -> list:
        """*src* holds the chain up to *height*: as its consensus messages
        imply — kept if higher than what we knew, and we may fetch — or in
        its own word, an announcement at or below our head: nothing to
        fetch, but the provider choice should know."""
        self._out = out = []
        if own_word:
            self.known_heights[src] = height
        elif src != self.node_id:
            self.known_heights[src] = max(height, self.known_heights.get(src, -1))
            self._fetch()
        return out

    def statement(self, src: str, statement: Statement, announced: bool) -> list:
        """A verified statement from *src*: its announcement (of a head
        above ours), or a validator's answer to an attest request —
        whether it is for the held tip, against it, or for a retry to find."""
        self._out = out = []
        if announced:
            if src in self.validators:
                self.statements[True, src] = statement
                self._emit(Count("sync.statements_verified"))
            # Its own word replaces whatever its votes let us guess.
            self.known_heights[src] = statement.height
            self._fetch()
        elif statement.height > self.head.height:
            self.statements[False, src] = statement
            if self.batch and statement.height == self.batch[-1].height and (
                    statement.block_hash != self.batch[-1].block_hash):
                self._emit(Count("sync.statements_rejected", "wrong-hash"))
            else:
                self._emit(Count("sync.statements_verified"))
        else:
            return out  # answered a question we no longer have
        self._complete()
        return out

    def response(self, src: str, req_id: Any, height: int | None, blocks: list[Block]) -> list:
        """*src*'s answer to request *req_id*: the height it reports (if
        it said one) and its blocks, in order.  Only the provider asked
        can answer, and only once."""
        self._out = out = []
        if self.request is None or (req_id, src) != (self.request, self.provider) or self.batch:
            self._emit(Count("sync.stale_responses"))
            return out
        self.strikes.pop(src, None)
        if height is not None:
            # Its actual height replaces whatever it (or a height-ahead
            # message) previously claimed.
            self.known_heights[src] = height
        batch = [block for block in blocks if block.height > self.head.height]
        if not batch:
            self._close("response")
            self.failures = 0
            self._next(fetch=True)
            return out
        if not all(self._admits(block, parent)
                   for parent, block in zip([self.head, *batch], batch)):
            self._reject()
            return out
        self.batch = batch
        self._complete()
        if self.request == req_id:
            self._ask()
        return out

    def fire(self, token: Token) -> list:
        """A timer scheduled as *token* fired; one whose request or backoff
        is over does nothing."""
        self._out = out = []
        kind, req_id = token
        if kind == "retry" and self.backoff == req_id:
            self.backoff = None
            self._fetch()
        elif kind == "timeout" and self.request == req_id:
            self._timeout()
        elif kind == "reask" and self.request == req_id:
            self._ask()
        return out

    def applied(self, block: Block) -> None:
        """The ledger took *block* — fetched here, decided by consensus,
        replayed at a join: the head moves (no effects)."""
        self.head = block

    def settled(self) -> list:
        """The blocks of the last :class:`Apply` are in (and came back as
        :meth:`applied`): apply the next buffered block, or go on."""
        self._out = out = []
        self._next(self._then)
        return out

    def offer(self, src: str, block: Block) -> list:
        """*block* came from *src* with its own authority (a PoA leader's
        broadcast), possibly ahead: the next one is checked and applied,
        one beyond the gap is buffered and the gap fetched.  Where tips
        need a quorum's statements an offer is worth nothing."""
        self._out = out = []
        height, future = block.height, self.future
        if self.quorum or height <= self.head.height:
            return out
        self.known_heights[src] = max(height, self.known_heights.get(src, -1))
        if height == self.head.height + 1:
            # (Refused, it still counts as a claim: the lag goes on.)
            if self._admits(block, self.head):
                self._apply((block,), None, fetch=False)
            else:
                self._emit(Count("sync.invalid_blocks"))
            return out
        if len(future) < self.FUTURE_WINDOW or height < max(future):
            if len(future) >= self.FUTURE_WINDOW:
                del future[max(future)]
            if height not in future:
                self._emit(Count("sync.buffered_future"))
            future[height] = block
        self._fetch()
        return out

    def halt(self) -> list:
        """The peer stops syncing, or restarts: the request, or the backoff
        after one, is dropped."""
        self._out = out = []
        if self.request is not None or self.backoff is not None:
            self._close("cancelled")
        self.backoff = None
        return out

    def restart(self, head: Block, lost: int) -> list:
        """A process restart recovered *head*; everything volatile is gone.
        *lost* blocks the store had acknowledged did not survive: the lag
        clock starts now, so re-fetching them counts as a catch-up."""
        out = self.halt()
        self.head, self.failures, self.lag_from = head, 0, None
        for table in (self.future, self.known_heights, self.statements, self.strikes):
            table.clear()
        if lost:
            self._lag()
        return out

    # -- queries --------------------------------------------------------------

    def target(self) -> int:
        """The tallest height claimed or buffered."""
        return max(max(self.known_heights.values(), default=0), max(self.future, default=0))

    def lagging(self) -> bool:
        """Does any known node hold a longer chain than ours?"""
        return self.target() > self.head.height

    def copy(self) -> SyncCore:
        """A twin to branch from: tables copied; blocks, and the jitter
        stream (it draws delays, never a transition), shared."""
        twin = copy.copy(self)
        twin.known_heights, twin.strikes = dict(self.known_heights), dict(self.strikes)
        twin.statements, twin.future = dict(self.statements), dict(self.future)
        twin.batch = list(self.batch)
        return twin

    # -- transitions ----------------------------------------------------------

    def _emit(self, effect: Any) -> None:
        self._out.append(effect)

    def _admits(self, block: Block, parent: Block) -> bool:
        """The per-block check: *block* is internally consistent and the
        next link after *parent* (it came from outside: anything may be
        wrong with it), and — where no quorum will vouch for a tip —
        carries its own authority."""
        try:
            block.verify_structure()
        except Exception:
            return False
        return (block.height, block.prev_hash) == (parent.height + 1, parent.block_hash) and bool(
            self.quorum or self.certified(block, None))

    def _apply(self, batch: tuple[Block, ...], proof: Any, fetch: bool) -> None:
        self._then = fetch
        self._emit(Apply(batch, proof))

    def _close(self, outcome: str) -> None:
        self.request, self.batch, self.asked = None, [], False
        self._emit(Closed(outcome))

    def _next(self, fetch: bool) -> None:
        """The one tail after a batch settles or a block is applied: the
        buffered block right above the head goes next; the buffer loses
        what the head passed; then fetch — or, after an offered block,
        only see whether the lag is over."""
        block = self.future.pop(self.head.height + 1, None)
        if block is not None:
            if self._admits(block, self.head):
                self._apply((block,), None, fetch)
                return
            self._emit(Count("sync.invalid_blocks"))
        self.future = {h: b for h, b in self.future.items() if h > self.head.height}
        if fetch:
            self._fetch()
        else:
            self._caught_up()

    def _fetch(self) -> None:
        """Start a ranged fetch if we are behind and nothing stops us."""
        if self.request is not None or self.backoff is not None or self.down():
            return
        target, height = self.target(), self.head.height
        if target <= height:
            self._caught_up()
            return
        self._lag()
        tallest = max(self.known_heights.values(), default=-1)
        if tallest > height:  # else only the future buffer is ahead
            # Rotate among equally tall providers as failures accumulate,
            # so a silent one does not absorb every retry.
            best = sorted(node for node, claimed in self.known_heights.items()
                          if claimed == tallest)
            self.requests += 1
            self.request = f"{self.node_id}#{self.requests}"
            self.provider = best[self.failures % len(best)]
            self._emit(Schedule(("timeout", self.request), self.REQUEST_TIMEOUT))
            if self.failures:
                self._emit(Count("sync.retries"))
            self._emit(Request(self.request, self.provider, height + 1, target))

    def _lag(self) -> None:
        if self.lag_from is None:
            self.lag_from = self.head.height
            self._emit(LagStart(max(self.target() - self.head.height, 0)))

    def _caught_up(self) -> None:
        if self.lag_from is not None and not self.lagging() and not self.future:
            self._emit(CaughtUp(self.head.height - self.lag_from))
            self.lag_from = None

    def _timeout(self) -> None:
        req_id, provider = self.request, self.provider
        self._close("timeout")
        if self.down():
            return
        self._emit(Count("sync.timeouts"))
        self.failures += 1
        self.strikes[provider] = self.strikes.get(provider, 0) + 1
        if self.strikes[provider] >= self.PROVIDER_PATIENCE:
            self._forget(provider)  # it must re-announce to be chosen again
        delay = min(self.BACKOFF_BASE * self.BACKOFF_FACTOR ** min(self.failures - 1, 6),
                    self.BACKOFF_CAP) * (1.0 + self.JITTER * self.rng.random())
        self.backoff = req_id
        self._emit(Schedule(("retry", req_id), delay))

    def _forget(self, provider: str) -> None:
        self.known_heights.pop(provider, None)
        self.strikes.pop(provider, None)
        self._emit(Forget(provider))

    def _reject(self) -> None:
        """Bad, gapped or refuted batch: nothing of it is applied, and the
        provider's claim is dropped so the next round fails over."""
        provider = self.provider
        self._close("rejected")
        self._emit(Count("sync.invalid_blocks"))
        self._forget(provider)
        self._next(fetch=True)

    def _proof(self, tip: Block) -> tuple[dict[str, Any], set[str]]:
        """The proof *tip* has so far — who vouches for it, and who of
        them has only voted for it (we ourselves, if we did) — and which
        validators vouch for another block at its height."""
        kept: dict[str, tuple[str, bool]] = {}
        against: set[str] = set()
        # Answers first: an announcement says "applied" and replaces an
        # answer that said "voted".
        for (_, node), statement in sorted(self.statements.items()):
            if statement.height == tip.height and statement.block_hash == tip.block_hash:
                kept[node] = (statement.signature, statement.voted)
            elif statement.height == tip.height:
                against.add(node)
        own = self.vouch(tip) if self.node_id in self.validators else None
        if own is not None:
            kept[self.node_id] = own
        proof = {"signers": sorted(kept),
                 "signatures": {node: signature for node, (signature, _) in kept.items()},
                 "voted": sorted(node for node, (_, voted) in kept.items() if voted)}
        return proof, against

    def _complete(self) -> None:
        """Settle the held batch: apply it if its tip is certified by now,
        drop its provider if it never can be."""
        if not self.batch:
            return
        # Consensus may have moved the head while the batch was held.
        batch = self.batch = [block for block in self.batch if block.height > self.head.height]
        if not batch:
            self._close("overtaken")
            self._next(fetch=True)
            return
        proof, against = self._proof(batch[-1])
        linked = batch[0].prev_hash == self.head.block_hash
        if not (linked and self.certified(batch[-1], proof)):
            # No statement can help a batch that fell off the chain, a tip
            # the engine asks none for, or one that too many validators
            # contradict for it ever to reach the quorum.
            if not linked or not self.quorum or len(self.validators) - len(against) < self.quorum:
                self._reject()
            return
        self._close("applied")
        self.failures = 0
        self._apply(tuple(batch), proof, fetch=True)

    def _ask(self) -> None:
        """Ask every validator whose word on the held tip is missing; again
        every ``BACKOFF_BASE`` until the batch settles — from the second
        time on, for a tip that can be vouched for."""
        req_id = self.request
        if self.asked:
            # Still short: keep what f+1 validators are known to hold, and
            # so can call applied.  Above that only votes can certify a
            # tip, and a vote counts only right above the voter's head —
            # one block, then.
            held = sorted(self.known_heights.get(validator, 0)
                          for validator in self.validators if validator != self.node_id)
            keep = max(held[-1 - self.quorum // 2], self.head.height + 1)
            self.batch = [block for block in self.batch if block.height <= keep]
            self._complete()
            if self.request != req_id:
                return
        proof, against = self._proof(self.batch[-1])
        heard = {self.node_id, *proof["signers"], *against}
        for validator in self.validators:
            if validator not in heard:
                self._emit(AttestRequest(validator, self.batch[-1].height))
        self.asked = True
        self._emit(Schedule(("reask", req_id), self.BACKOFF_BASE))
