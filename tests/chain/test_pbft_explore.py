"""Four PBFT cores (n = 4, f = 1) over every delivery order, exhaustively.

The explorer drives :class:`~repro.chain.consensus.pbft_core.PBFTCore`
directly — no simulator, no network — for three honest validators and one
faulty one:

- ``"silent"``: v3 never sends anything;
- ``"equivocating"``: v0, primary of view 0, is played by the explorer.
  From the start it has sent every honest replica pre-prepares for two
  conflicting blocks at each height (two children of each of its blocks
  above the first), prepare and commit votes for every one of them, and
  view-change votes for every view in the bound; and whenever an honest
  primary proposes, it votes prepare and commit for that block too.

A state is the three honest cores and the set of messages sent so far.
A message, once sent, may be delivered at any later point (a network that
delays, reorders, drops and duplicates).  From every state the explorer
tries: delivering any sent message to its destination; firing any honest
replica's view timer (it always has work waiting, and in an asynchronous
network the timer can always expire after its last progress); the
primary's tick, which proposes at the core's open heights
(:meth:`~repro.chain.consensus.pbft_core.PBFTCore.open_heights`, the rule
the driver's tick follows); and state transfer — a replica applying the next block
of another honest replica's chain, as the sync manager would.

The search is breadth-first within a :class:`Bound`: proposals only up to
``heights``, view timers only below ``views``.  Cores are deterministic,
so local states are interned by a canonical key and each local step is
computed once; a global state is three local-state ids and a bit mask of
sent messages, packed into one integer and deduplicated exactly.  Three
reductions keep the search small, each exact for what is checked:

- a message its destination will ignore for good (an older view, an
  applied height, a view-change vote already counted) leaves the set;
- view-change votes are only counted toward a quorum, so they are
  delivered together once they (with the replica's own) make one;
- with ``early=False`` a vote waits for its round's pre-prepare: the core
  would stash it and count or drop it when the pre-prepare comes, which
  ends where delivering it afterwards ends.  (The stash itself is then not
  exercised; ``tests/chain/test_pbft_pipeline.py`` pins it, and the
  tier-1 silent bound delivers early votes.)

Checked in every state: **agreement** (no two honest replicas hold
different blocks at one height), **certificates** (every
:class:`~repro.chain.consensus.pbft_core.Apply` names 2f+1 distinct
validators), **locks** (every lock is above the applied head, and one
right above it extends it — else it must have lapsed), **windows** (round
tables inside the view and height windows, decided blocks above the
head, view votes inside the view window).

Findings pinned here: a core with the lock refusal removed forks at the
tier-1 bound — the schedule the lock exists for: a replica decides and
the next view decides another block; and the known liveness corner of
the lock is reachable — two honest replicas locked on different blocks at
a height nobody has applied, after which, with the faulty validator
silent, no honest replica ever applies it.  The mutant's search and ``DEEP`` run
under ``-m chaos`` (``make chaos``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.chain.block import Block, make_genesis_block
from repro.chain.consensus.pbft_core import (
    Apply,
    Broadcast,
    Commit,
    PBFTCore,
    Prepare,
    PrePrepare,
    ViewChange,
)

VALIDATORS = ("v0", "v1", "v2", "v3")
QUORUM = 3  # 2f + 1, stated here rather than taken from the core under test
GENESIS = make_genesis_block()
_BITS = 20  # per local-state id in a packed global state
#: The equivocator's first block at height 1, and the block v1 proposes
#: there as primary of view 1.
EQUIVOCATED = Block.build(1, GENESIS.block_hash, 0.25, "v0", []).block_hash
V1_PROPOSAL = Block.build(1, GENESIS.block_hash, 1.0, "v1", []).block_hash


@dataclass(frozen=True)
class Bound:
    heights: int  # nothing is proposed above this height
    views: int  # view timers fire only below this view
    depth: int  # the cores' pipeline depth
    early: bool  # may a vote arrive before its round's pre-prepare?


#: Tier-1, about 10 s on a 2-core box: two heights and a view change with
#: v3 silent; one height and a view change against the equivocator.
TIER1 = {
    "silent": Bound(heights=2, views=1, depth=1, early=True),
    "equivocating": Bound(heights=1, views=1, depth=1, early=False),
}
#: ``make chaos``: a second view change each way, and a pipelined window
#: (the last two about a minute and 300-400 MB each).
DEEP = [
    ("silent", Bound(heights=2, views=2, depth=1, early=True)),
    ("silent", Bound(heights=2, views=1, depth=2, early=False)),
    ("equivocating", Bound(heights=1, views=2, depth=1, early=False)),
]


class Violation(AssertionError):
    def __init__(self, invariant: str, detail: str, states: int):
        super().__init__(f"{invariant} after {states} states: {detail}")
        self.invariant, self.states = invariant, states


@dataclass(eq=False)
class _Local:
    """An interned local state: its core, how each sent message stands
    with it, and the steps computed from it."""

    core: PBFTCore
    deliverable: int = 0  # messages it takes one at a time
    ballots: dict[int, int] = field(default_factory=dict)  # view -> view-change votes
    spent: int = 0  # messages it, and every state after it, ignores
    sorted_upto: int = 0  # messages classified so far
    steps: dict = field(default_factory=dict)  # event -> (local id, messages sent)


class Explorer:
    """Breadth-first search over the delivery orders of one scenario."""

    def __init__(self, bound: Bound, faulty: str, core_type: type = PBFTCore):
        self.bound = bound
        self.bad = "v3" if faulty == "silent" else "v0"
        self.honest = tuple(v for v in VALIDATORS if v != self.bad)
        #: Does the faulty validator send?  Messages it sent before it fell
        #: silent are muted.
        self.speaks, self.muted = faulty == "equivocating", 0
        self.blocks: dict[str, Block] = {GENESIS.block_hash: GENESIS}
        #: message id -> (src, dst, message); a set of messages is a bit mask
        self.messages: list[tuple[str, str, object]] = []
        self._message_ids: dict[tuple[str, str, object], int] = {}
        self.locals: list[_Local] = []
        self._local_ids: dict[tuple, int] = {}
        self._agree: dict[tuple[str, str], bool] = {}
        self.states = 0
        #: The first state found with two honest replicas locked on
        #: different blocks at a height none of them has applied, all of
        #: them past view 0: ``(local-state ids, sent)``.
        self.locked_apart: tuple[tuple[int, ...], int] | None = None
        #: A predicate over the honest cores that must never hold.
        self.forbidden: Callable[[list[PBFTCore]], bool] | None = None
        self.initial = tuple(
            self._intern(core_type(list(VALIDATORS), node, bound.depth, GENESIS))
            for node in self.honest
        )
        self.initial_sent = self._opening() if self.speaks else 0

    # -- interning ------------------------------------------------------------

    def _send(self, src: str, dst: str, message: object) -> int:
        key = (src, dst, message)
        bit = self._message_ids.get(key)
        if bit is None:
            bit = self._message_ids[key] = len(self.messages)
            self.messages.append(key)
        return 1 << bit

    def _block(self, height: int, parent: str, stamp: float, proposer: str) -> Block:
        block = Block.build(height, parent, stamp, proposer, [])
        self.blocks.setdefault(block.block_hash, block)
        return block

    def _intern(self, core: PBFTCore) -> int:
        key = _core_key(core)
        lid = self._local_ids.get(key)
        if lid is None:
            _check_local(core, self.states)
            lid = self._local_ids[key] = len(self.locals)
            assert lid < 1 << _BITS
            self.locals.append(_Local(core))
        return lid

    def _sort(self, lid: int) -> _Local:
        """The local state, with every message interned so far classified."""
        local = self.locals[lid]
        core = local.core
        for bit in range(local.sorted_upto, len(self.messages)):
            src, dst, message = self.messages[bit]
            if dst != core.node_id:
                continue
            if _spent(core, src, message):
                local.spent |= 1 << bit
            elif type(message) is ViewChange:
                local.ballots[message.new_view] = local.ballots.get(message.new_view, 0) | 1 << bit
            elif self.bound.early or not _early(core, message):
                local.deliverable |= 1 << bit
        local.sorted_upto = len(self.messages)
        return local

    # -- the faulty validator -----------------------------------------------

    def _opening(self) -> int:
        """Everything the equivocating primary sends up front."""
        sent, parents = 0, [GENESIS.block_hash]
        for height in range(1, self.bound.heights + 1):
            children = []
            for parent in parents:
                for fork in (0.25, 0.75):  # the timestamps of its two blocks
                    block = self._block(height, parent, fork, self.bad)
                    children.append(block.block_hash)
                    sent |= self._to_honest(PrePrepare(0, height, block))
                    sent |= self._echo(0, height, block.block_hash)
            parents = children
        for view in range(1, self.bound.views + 1):
            sent |= self._to_honest(ViewChange(view))
        return sent

    def _to_honest(self, message: object, src: str | None = None) -> int:
        src = src or self.bad
        sent = 0
        for dst in self.honest:
            if dst != src:
                sent |= self._send(src, dst, message)
        return sent

    def _echo(self, view: int, height: int, digest: str) -> int:
        """The equivocator's prepare and commit for a block, to everyone."""
        return self._to_honest(Prepare(view, height, digest)) | self._to_honest(
            Commit(view, height, digest))

    def silence(self, views: int) -> None:
        """From now on the faulty validator says nothing, and nothing it
        said has arrived; view timers run up to *views*."""
        self.speaks = False
        self.muted = sum(1 << bit for bit, (src, _, _) in enumerate(self.messages)
                         if src == self.bad)
        self.bound = Bound(self.bound.heights, views, self.bound.depth, self.bound.early)

    # -- local steps --------------------------------------------------------------

    def _step(self, lid: int, event: int | str | tuple) -> tuple[int, int]:
        """(local state after *event*, messages it sent), computed once."""
        steps = self.locals[lid].steps
        done = steps.get(event)
        if done is None:
            core, sent = self.locals[lid].core.copy(), 0
            if type(event) is int:  # a set of messages, delivered in turn
                for bit in _bits(event):
                    src, _, message = self.messages[bit]
                    sent |= self._carry(core, core.receive(src, message))
            elif event == "timer":
                sent = self._carry(core, core.timeout(core.progress(), True))
            elif event == "tick":
                sent = self._tick(core)
            else:  # ("transfer", hash): the sync manager applies another's block
                sent = self._carry(core, core.applied(self.blocks[event[1]]))
            done = steps[event] = (self._intern(core), sent)
        return done

    def _carry(self, core: PBFTCore, effects: list) -> int:
        sent = 0
        for effect in effects:
            if type(effect) is Broadcast:
                message = effect.message
                sent |= self._to_honest(message, core.node_id)
                if self.speaks and type(message) is PrePrepare:
                    sent |= self._echo(message.view, message.height, message.block.block_hash)
            elif type(effect) is Apply:
                voters = set(effect.certificate)
                distinct = len(voters) == len(effect.certificate)
                if not (distinct and voters <= set(VALIDATORS) and len(voters) >= QUORUM):
                    detail = f"{core.node_id} applied on {effect.certificate}"
                    raise Violation("certificate", detail, self.states)
                sent |= self._carry(core, core.applied(effect.block))
        return sent

    def _tick(self, core: PBFTCore) -> int:
        """The primary's tick: the core's open heights up to the bound, as
        the driver proposes them (the mempool always has work)."""
        sent = 0
        for height, parent in core.open_heights():
            if height > self.bound.heights:
                break
            block = None if parent is None else self._block(
                height, parent, float(core.view), core.node_id)
            sent |= self._carry(core, core.propose(height, block))
        return sent

    # -- global states -------------------------------------------------------------

    def _events(self, lids: tuple[int, ...], sent: int, local: _Local) -> list:
        """What may happen next at one replica: a message delivered (its
        bit), a quorum of view-change votes delivered (their bits), its
        view timer, its tick as primary, or a block transferred to it."""
        core = local.core
        events: list = []
        pending = sent & local.deliverable
        while pending:
            bit = pending & -pending
            events.append(bit)
            pending ^= bit
        for view, ballots in local.ballots.items():
            ballots &= sent
            if ballots and ballots.bit_count() + len(core.view_votes.get(view, ())) >= QUORUM:
                events.append(ballots)
        if core.view < self.bound.views:
            events.append("timer")
        if core.primary(core.view) == core.node_id:
            events.append("tick")
        for other in lids:
            ahead = self.locals[other].core.head
            if ahead.height > core.head.height:
                block = self._ancestor(ahead, core.head.height + 1)
                if block.prev_hash == core.head.block_hash:
                    events.append(("transfer", block.block_hash))
        return events

    def _ancestor(self, block: Block, height: int) -> Block:
        while block.height > height:
            block = self.blocks[block.prev_hash]
        return block

    def _check(self, lids: tuple[int, ...], sent: int) -> None:
        cores = [self.locals[lid].core for lid in lids]
        for i, a in enumerate(cores):
            for b in cores[i + 1:]:
                key = (a.head.block_hash, b.head.block_hash)
                agree = self._agree.get(key)
                if agree is None:
                    low, high = sorted((a.head, b.head), key=lambda block: block.height)
                    agree = self._agree[key] = self._ancestor(high, low.height) == low
                if not agree:
                    raise Violation("agreement", f"{a.node_id} applied {a.head.block_hash[:12]} "
                                    f"and {b.node_id} {b.head.block_hash[:12]} at height "
                                    f"{min(a.head.height, b.head.height)}", self.states)
        if self.forbidden is not None and self.forbidden(cores):
            raise Violation("forbidden", str(lids), self.states)
        if self.locked_apart is None and all(core.view > 0 for core in cores):
            for i, a in enumerate(cores):
                for b in cores[i + 1:]:
                    if any(
                        theirs != a.locks.get(height, theirs)
                        and all(core.head.height < height for core in cores)
                        for height, theirs in b.locks.items()
                    ):
                        self.locked_apart = (lids, sent)

    def run(self, lids: tuple[int, ...] | None = None, sent: int | None = None) -> int:
        """Explore every state reachable within the bound; the count.

        A state is packed as ``sent << 3 * _BITS | lid0 << 2 * _BITS | ...``,
        the messages every destination ignores for good cleared from
        ``sent``, so histories that differ only in those meet."""
        lids = self.initial if lids is None else lids
        sent = (self.initial_sent if sent is None else sent) & ~self.muted
        width = _BITS * len(lids)
        shifts = [_BITS * (len(lids) - 1 - index) for index in range(len(lids))]
        low, local_bits = (1 << _BITS) - 1, (1 << width) - 1
        first = sent << width
        for lid, shift in zip(lids, shifts):
            first |= lid << shift
        seen, frontier = {first}, [first]
        self.states = 1
        while frontier:
            following = []
            for state in frontier:
                sent, here = state >> width, state & local_bits
                lids = tuple((state >> shift) & low for shift in shifts)
                self._check(lids, sent)
                locals_ = [self._sort(lid) for lid in lids]
                for index, shift in enumerate(shifts):
                    lid = lids[index]
                    spent_elsewhere = 0
                    for other, local in enumerate(locals_):
                        if other != index:
                            spent_elsewhere |= local.spent
                    for event in self._events(lids, sent, locals_[index]):
                        after, more = self._step(lid, event)
                        more &= ~sent & ~self.muted
                        if after == lid and not more:
                            continue
                        spent = spent_elsewhere | self._sort(after).spent
                        following_state = (((sent | more) & ~spent) << width) | (
                            here ^ ((lid ^ after) << shift))
                        if following_state not in seen:
                            seen.add(following_state)
                            following.append(following_state)
            self.states += len(following)
            frontier = following
        return self.states


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _early(core: PBFTCore, message: object) -> bool:
    """A vote for a round that has not had its pre-prepare."""
    if type(message) is PrePrepare:
        return False
    rnd = core.rounds.get((message.view, message.height))
    return rnd is None or rnd.digest is None


def _spent(core: PBFTCore, src: str, message: object) -> bool:
    """Will *core*, and every core it becomes, ignore *message* from *src*?

    Views and heights never go back, so a message for an older view or an
    applied height is spent, as is a view-change vote already counted, and
    a pre-prepare refused right above the head (that lock extends the
    head, so it goes only when its height is applied).  At pipeline depth 1
    nothing waits in the decided buffer, so a round lives until its view or
    height is settled, and what it has absorbed — its pre-prepare, a vote
    it counted, a vote for another digest, a prepare once it has voted
    commit — can change nothing while it lives."""
    if type(message) is ViewChange:
        return message.new_view <= core.view or src in core.view_votes.get(message.new_view, ())
    if message.view < core.view or message.height <= core.head.height:
        return True
    if type(message) is PrePrepare and message.height == core.head.height + 1 and core._refuses(
        message.height, message.block
    ):
        return True
    rnd = core.rounds.get((message.view, message.height))
    if core.pipeline_depth > 1 or rnd is None or rnd.digest is None:
        return False
    if type(message) is PrePrepare or message.digest != rnd.digest:
        return True
    if type(message) is Commit:
        return src in rnd.commits
    return src in rnd.prepares or core.node_id in rnd.commits


def _core_key(core: PBFTCore) -> tuple:
    """Everything that decides a core's future, canonically ordered."""
    return (
        core.node_id,
        core.view,
        core.head.block_hash,
        tuple(sorted((height, block.block_hash) for height, block in core.locks.items())),
        tuple(sorted(
            # Once a replica has voted commit, the prepares it counts
            # decide nothing more.
            (key, rnd.digest, core.node_id in rnd.commits or frozenset(rnd.prepares),
             frozenset(rnd.commits), frozenset(rnd.early.items()))
            for key, rnd in core.rounds.items()
        )),
        tuple(sorted(
            (height, rnd.view, rnd.digest, frozenset(rnd.commits))
            for height, rnd in core.decided.items()
        )),
        tuple(sorted((view, frozenset(votes)) for view, votes in core.view_votes.items())),
    )


def _check_local(core: PBFTCore, states: int) -> None:
    head = core.head
    for height, lock in core.locks.items():
        if height <= head.height or (
            height == head.height + 1 and lock.prev_hash != head.block_hash
        ):
            raise Violation("lock", f"{core.node_id} locked at {height} over head {head.height}",
                            states)
    outside = [
        key for key in core.rounds
        if not (core.view <= key[0] <= core.view + core.VIEW_WINDOW
                and head.height < key[1] <= head.height + core.height_window)
    ]
    outside += [h for h in core.decided if h <= head.height]
    outside += [v for v in core.view_votes if not core.view < v <= core.view + core.VIEW_WINDOW]
    if outside:
        raise Violation("window", f"{core.node_id} holds {outside}", states)


class _NoRefusal(PBFTCore):
    """The core without the lock's refusal: a replica that voted commit for
    one block still accepts another at that height in a later view."""

    def _refuses(self, height: int, block: Block) -> bool:
        return False


def _explore(bound: Bound, faulty: str, core_type: type = PBFTCore) -> Explorer:
    explorer = Explorer(bound, faulty, core_type)
    began = time.perf_counter()
    try:
        explorer.run()
    finally:
        print(f"{faulty} {bound}: {explorer.states} states, {len(explorer.locals)} local "
              f"states, {len(explorer.messages)} messages, {time.perf_counter() - began:.1f} s")
    return explorer


@pytest.fixture(scope="module")
def equivocating() -> tuple[Explorer, int]:
    """The tier-1 search against the equivocator, and its state count
    (taken now: resuming the explorer from a found state recounts)."""
    explorer = _explore(TIER1["equivocating"], "equivocating")
    return explorer, explorer.states


def test_every_delivery_order_is_safe_with_a_silent_replica():
    _explore(TIER1["silent"], "silent")


def test_every_delivery_order_is_safe_with_an_equivocating_primary(equivocating):
    _, states = equivocating
    assert states > 100_000


@pytest.mark.chaos
def test_a_core_without_the_lock_refusal_forks():
    """The fork the lock prevents, found at the tier-1 bound: one replica
    decides the equivocator's block in view 0, the next primary — never
    locked — proposes its own in view 1, and a replica that voted commit
    for the first votes for the second.  (Under ``-m chaos`` only because
    it is a second tier-1-sized search.)"""
    with pytest.raises(Violation) as found:
        _explore(TIER1["equivocating"], "equivocating", _NoRefusal)
    assert found.value.invariant == "agreement"
    assert f"v1 applied {V1_PROPOSAL[:12]} and v2 {EQUIVOCATED[:12]}" in str(found.value)
    print(f"fork found after {found.value.states} states: {found.value}")


def test_liveness_corner_is_reachable(equivocating):
    """Two honest replicas locked on different blocks at height 1, nobody
    past it, everyone past view 0: with the equivocator silent from there,
    every proposal at height 1 is one prepare short, through a view of
    every honest primary — no honest replica ever applies it."""
    explorer, _ = equivocating
    assert explorer.locked_apart is not None
    lids, sent = explorer.locked_apart
    cores = [explorer.locals[lid].core for lid in lids]
    locked = {core.node_id: core.locks[1].block_hash for core in cores if 1 in core.locks}
    # The first found: v2 locked on the equivocator's block in view 0, v1
    # on the block it proposed itself in view 1.
    assert locked == {"v1": V1_PROPOSAL, "v2": EQUIVOCATED}
    assert [(core.view, core.head.height) for core in cores] == [(1, 0)] * 3
    explorer.silence(views=4)
    explorer.forbidden = lambda cores: any(core.head.height >= 1 for core in cores)
    print(f"stalled through views 1-4: {explorer.run(lids, sent)} states")


@pytest.mark.chaos
@pytest.mark.parametrize("faulty, bound", DEEP)
def test_every_delivery_order_is_safe_deep(faulty, bound):
    _explore(bound, faulty)
