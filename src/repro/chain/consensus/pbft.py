"""Practical Byzantine Fault Tolerance over the simulated network.

A faithful (if compact) PBFT: pre-prepare / prepare / commit phases with
2f+1 quorums and view changes on timeout.  Tolerates f faulty of
n = 3f+1 validators, including an equivocating (byzantine) primary — see
``tests/chain/test_pbft.py``.

State transfer for replicas that fall behind — whether by one round or
by a long crash window — is *not* handled here: a replica that misses a
decision learns of it from the signed height announcements of the peer's
:class:`~repro.chain.sync.SyncManager` (buffer-and-fetch with retries,
backoff, and provider failover), and the engine flags every height-ahead
consensus message as a lag hint.  A fetched batch is only applied when
enough validators have signed a statement for its tip — f+1 that applied
it, or 2f+1 that applied it or voted for it
(:meth:`PBFTEngine.verify_synced_block`).

**Pipelined ordering.**  Up to ``pipeline_depth`` sequence numbers are
in flight per view (Castro–Liskov's high/low-watermark window, sized for
the simulator): the primary proposes heights h+1..h+k before h+1 has
gathered quorum, chaining each pipelined block onto the digest of the
still-uncommitted proposal below it.  Rounds for different heights
progress independently; a commit quorum reached *out of order* (h+2
before h+1) is parked in a decided-block buffer and applied — after a
parent-linkage check, the same verify-before-apply discipline the sync
path uses — the moment the gap below closes.  Application is therefore
always strictly in height order even though agreement is not.  The
mempool cooperates via reservations: a transaction taken into an
in-flight proposal cannot be re-admitted by a gossip echo and
re-proposed at a second height (a double-commit hazard that exists only
when more than one block is open at a time).

**The lock.**  The block a replica votes commit for at height h is a
lock it keeps — across view changes and restarts, as stable storage,
exactly as ``view`` is — until h is applied.  While locked it refuses a
pre-prepare for any other digest at h in any view, and as primary it
re-proposes exactly that block (same hash), mempool empty or not.  The
argument: a decision at h needs 2f+1 commit votes, so at least f+1
honest replicas are locked on the decided digest; every other digest can
then gather at most 2f prepares, never a prepare quorum, so no honest
replica votes commit for it and it is decided nowhere — even though the
view change carries no prepared certificate.  The lock is released when
h is applied (by consensus or sync) and lapses when the applied block at
h−1 is not its parent: such a block extends a proposal that lost its
height, so no honest replica can ever apply it (for the same reason a
replica casts no commit vote, and so takes no lock, for a block at the
very next height that does not extend its applied head).  Known limit: two honest
replicas locked on *different* digests at h (each saw a prepare quorum
in a different view, neither digest was decided) plus one silent
validator leave every proposal at h one prepare short, and the height
stalls until the silent validator returns and a locked primary's turn
comes round.  Tendermint's unlock-on-newer-quorum, or the full new-view
certificate, is the cure; both belong to the pure state machine of
ROADMAP item 2, whose exhaustive explorer is the tool that finds such
schedules.

Simplifications relative to Castro & Liskov, documented here because
they matter when reading experiment results:

- Channels are authenticated by the simulator (a message's ``src`` is
  trusted), so **no consensus message is signed**: pre-prepare, prepare,
  commit and view-change votes are membership-checked and digest-matched,
  and the new-view proof is replaced by the lock above.
- **A certificate is signed when someone needs it.**  What a replica
  keeps per consensus-applied height is the name set of the 2f+1 commit
  votes it counted (``commit_certificates``, read by the invariant
  auditor).  What it can hand to a peer that was not there is a signed
  statement, in one of two forms.  ``sync-announce|node|height|hash`` —
  what the sync manager broadcasts for the head every announce interval
  anyway — says *I applied this block*, and a replica signs it for any
  height of its ledger.  ``sync-voted|node|height|hash`` says *I voted
  commit for it and my applied head is its parent*
  (:meth:`PBFTEngine.attested_hash`): a vote says nothing about what
  lies below the block, and whoever fetches it takes everything below a
  certified tip on the strength of the hash chain, so a lock deeper in
  the pipeline vouches for nothing until the gap under it has closed.
  :meth:`verify_synced_block` accepts a tip on f+1 "applied" statements
  (one signer is honest, and an honest replica applies only decided
  blocks or certified ones) or on 2f+1 statements of either form (f+1
  honest replicas applied it or are locked on it over a settled chain,
  so by the argument above no other block can be decided there) — the
  classical certificates, with the signatures made on request.  They
  are batch-verified against the validator key directory the network
  registers (:meth:`PBFTEngine.register_validator_keys`), and the hash
  chain extends a certified tip to every block below it.  Signers with
  no registered key fall back to the name-set check, which never counts
  as "applied" (standalone engines in unit tests run keyless).
- **Validator membership is enforced on every vote**: prepares, commits,
  and view-change votes are dropped unless ``src`` is in the engine's
  validator set, and a replica that is not itself a validator (a late
  "observer" joined via ``BlockchainNetwork.join_peer``) never votes —
  it decides from the 2f+1 commit votes it observes.  Quorums are
  2f+1 *distinct validators*, never merely 2f+1 distinct senders.
- **Votes only count for the digest they name.**  A prepare or commit
  that arrives before the pre-prepare is stashed with the digest it
  voted for and reconciled when the pre-prepare installs the round's
  digest; a vote for some other digest never contributes to quorum.
  (The seed counted early votes blindly, so votes for digest X could be
  tallied toward whatever digest Y the pre-prepare later carried.)
- Round state is bounded: messages are rejected outside a small view
  window (``[view, view + VIEW_WINDOW]``) and height window
  (``(committed, committed + height_window]``, where ``height_window``
  grows with ``pipeline_depth``), and rounds for deposed views are
  garbage-collected on view change — a deposed primary's
  taken-but-uncommitted transactions across the *whole* pipeline window
  are re-queued into its mempool so they are not silently dropped
  (those of a block it is locked on stay with the lock).
- Checkpointing is replaced by the two things it exists for: round state
  is pruned once a height is applied (the simulator's ledger is the
  checkpoint), and a transferable proof of the chain up to any height is
  f+1 "applied" statements for that height, asked for when wanted — no
  periodic k-block checkpoint is signed because nothing would read it.

The membership rule, the bounded-window rule, and the re-queue rule are
continuously re-verified under fault injection by
:class:`repro.chain.audit.InvariantAuditor` +
:class:`repro.simnet.chaos.ChaosSchedule` (see
``tests/chain/test_chaos_audit.py``), which also audits the pipeline's
decided-block buffer (a decided block at or below the applied head is an
internal-consistency violation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain.block import Block
from repro.chain.consensus.base import ConsensusEngine
from repro.chain.sync import statement_message
from repro.crypto.batch import verify_many
from repro.obs.trace import Span
from repro.simnet.network import Message

__all__ = ["PBFTEngine"]

_PRE_PREPARE = "pbft-pre-prepare"
_PREPARE = "pbft-prepare"
_COMMIT = "pbft-commit"
_VIEW_CHANGE = "pbft-view-change"


@dataclass
class _Round:
    """Bookkeeping for one (view, height) consensus instance."""

    digest: str | None = None
    block: Block | None = None
    prepares: set[str] = field(default_factory=set)
    commits: set[str] = field(default_factory=set)
    #: Votes that arrived before the pre-prepare, keyed by voter and
    #: remembering *which* digest each voted for.  They are reconciled —
    #: matching digests promoted, the rest dropped — when the
    #: pre-prepare installs the round's digest; until then they count
    #: toward nothing.  Bounded by validator-set size (membership is
    #: checked before stashing).
    early_prepares: dict[str, str] = field(default_factory=dict)
    early_commits: dict[str, str] = field(default_factory=dict)
    sent_prepare: bool = False
    sent_commit: bool = False
    #: Sim time this replica first saw the pre-prepare, for the
    #: ``pbft.round`` duration histogram.
    started_at: float | None = None
    #: Per-height lifecycle span (pre-prepare -> applied/discarded).
    span: Span | None = None


@dataclass
class _Decided:
    """A commit-quorum block waiting for the gap below it to close.

    Everything needed to apply later without the round state: the block,
    the names of the commit quorum, and the observability carried over
    from the round.
    """

    block: Block
    digest: str
    certificate: list[str]
    started_at: float | None = None
    span: Span | None = None
    buffered_at: float | None = None


class PBFTEngine(ConsensusEngine):
    """PBFT replica logic for one peer."""

    #: Accept votes only for views in ``[view, view + VIEW_WINDOW]`` and
    #: heights in ``(committed, committed + height_window]`` — anything
    #: beyond is either hopelessly stale or unverifiable garbage, and
    #: accepting it lets a flooder grow ``_rounds`` without bound.
    #: ``height_window`` is an instance attribute so deep pipelines can
    #: widen it; ``HEIGHT_WINDOW`` is its floor.
    VIEW_WINDOW = 8
    HEIGHT_WINDOW = 8
    #: Commit certificates older than this many heights below the chain
    #: head are pruned (they exist for the invariant auditor's forensics,
    #: not for the protocol itself).
    CERTIFICATE_HISTORY = 10_000

    def __init__(
        self,
        validators: list[str],
        block_interval: float = 1.0,
        view_timeout: float = 10.0,
        max_block_txs: int = 500,
        pipeline_depth: int = 4,
    ):
        super().__init__()
        if len(validators) < 4:
            raise ValueError("PBFT needs n >= 4 validators (n = 3f + 1, f >= 1)")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.validators = list(validators)
        self._validator_set = frozenset(validators)
        self.block_interval = block_interval
        self.view_timeout = view_timeout
        self.max_block_txs = max_block_txs
        #: In-flight sequence-number window: the primary may have this
        #: many uncommitted heights proposed at once (1 = the seed's
        #: one-block-at-a-time behaviour).
        self.pipeline_depth = pipeline_depth
        self.height_window = max(self.HEIGHT_WINDOW, 2 * pipeline_depth)
        self.view = 0
        self._rounds: dict[tuple[int, int], _Round] = {}
        #: height -> the block this replica voted commit for, for every
        #: height not yet applied (the lock of the module docstring).
        #: Stable storage: survives view changes and :meth:`on_restart`.
        self._locks: dict[int, Block] = {}
        #: height -> decided-but-unapplied block (commit quorum reached
        #: out of order); drained strictly in height order by
        #: :meth:`on_block_applied`.
        self._commit_buffer: dict[int, _Decided] = {}
        self._applying = False
        self._view_votes: dict[int, set[str]] = {}
        self._proposing = False
        self._tick_scheduled = False
        self._timer_scheduled = False
        self._timer_height = -1
        self._tick_event = None
        self._timer_event = None
        self.view_changes_completed = 0
        self.votes_rejected_nonvalidator = 0
        #: validator id -> Ed25519 public key.  Registered by
        #: :class:`~repro.chain.network.BlockchainNetwork`; a statement
        #: from a validator whose key is here only counts toward a synced
        #: tip's certificate if its signature verifies.  Empty for
        #: standalone engines (unit tests), which count signers by name.
        self.validator_keys: dict[str, bytes] = {}

    def register_validator_keys(self, keys: dict[str, bytes]) -> None:
        """Install the validator public-key directory (makes a synced
        tip's statement set cryptographically checkable)."""
        self.validator_keys.update(keys)

    # -- helpers -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.validators)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        """2f + 1: the intersection-guaranteeing quorum size."""
        return 2 * self.f + 1

    def primary_for(self, view: int) -> str:
        return self.validators[view % self.n]

    def is_primary(self) -> bool:
        assert self.peer is not None
        return self.primary_for(self.view) == self.peer.node_id

    def _round(self, view: int, height: int) -> _Round:
        return self._rounds.setdefault((view, height), _Round())

    def _member(self, src: str) -> bool:
        """Is *src* allowed to vote?  Quorums count validators only."""
        return src in self._validator_set

    def _count(self, metric: str) -> None:
        if self.peer is not None:
            self.peer.obs.counter(metric, peer=self.peer.node_id).inc()

    def _reject_nonvalidator(self) -> None:
        self.votes_rejected_nonvalidator += 1
        self._count("pbft.votes_rejected_nonvalidator")

    def _is_validator(self) -> bool:
        """Does *this* replica vote?  Observer peers follow, silently."""
        assert self.peer is not None
        return self.peer.node_id in self._validator_set

    def _in_window(self, view: int, height: int) -> bool:
        """Bound round bookkeeping: stale or far-future (view, height)
        keys must not allocate ``_Round`` state (memory-leak guard)."""
        assert self.peer is not None
        if not self.view <= view <= self.view + self.VIEW_WINDOW:
            return False
        committed = self.peer.ledger.height
        return committed < height <= committed + self.height_window

    def _note_lag_hint(self, src: str, height: int) -> None:
        """A validator voting *beyond the pipeline window* implies a
        chain longer than ours.  Heights inside the window are routine
        pipelining, not lag — treating them as lag (as the seed's
        ``height > committed + 1`` test would, at depth > 1) makes every
        replica spam ranged fetches for blocks that are not committed
        anywhere yet."""
        assert self.peer is not None
        if height > self.peer.ledger.height + self.pipeline_depth:
            self.peer.sync.note_remote_height(src, height - 1)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.peer is not None:
            self.peer.obs.gauge(
                "pbft.pipeline_depth", peer=self.peer.node_id
            ).set(self.pipeline_depth)
        self._schedule_tick()
        self._arm_view_timer()

    def _schedule_tick(self) -> None:
        if self.stopped or self._tick_scheduled:
            return
        self._tick_scheduled = True
        assert self.peer is not None
        self._tick_event = self.peer.sim.schedule(
            self.block_interval, self._tick, label=f"pbft-tick:{self.peer.node_id}"
        )

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self.stopped:
            return
        peer = self.peer
        assert peer is not None
        if (
            self.is_primary()
            and not peer.crashed
            # A locked height is re-proposed whether or not anything new
            # is waiting: the block may be decided elsewhere already.
            and (len(peer.mempool) > 0 or self._locks)
            # A primary that knows it is behind must sync before it
            # proposes: a stale-height pre-prepare can never gather
            # quorum and only wastes the round.
            and not peer.sync.is_lagging()
        ):
            base = peer.ledger.height
            for height in range(base + 1, base + self.pipeline_depth + 1):
                if len(peer.mempool) == 0 and height not in self._locks:
                    break
                if height in self._commit_buffer:
                    continue  # decided here; waiting on the gap below
                state = self._rounds.get((self.view, height))
                if state is not None and state.digest is not None:
                    continue  # already proposed at this height this view
                if not self._propose(height):
                    break
        self._schedule_tick()

    # -- proposal (primary) ---------------------------------------------------

    def _parent_digest(self, height: int) -> str | None:
        """The digest a proposal at *height* must chain onto: the ledger
        head for the first open height, otherwise the digest of the
        in-flight (or decided-but-unapplied) proposal one below.  None
        when the parent is unknown — a hole the primary must not propose
        across."""
        peer = self.peer
        assert peer is not None
        if height == peer.ledger.height + 1:
            return peer.ledger.head.block_hash
        decided = self._commit_buffer.get(height - 1)
        if decided is not None:
            return decided.digest
        state = self._rounds.get((self.view, height - 1))
        if state is not None and state.digest is not None:
            return state.digest
        return None

    def _propose(self, height: int) -> bool:
        peer = self.peer
        assert peer is not None
        block = self._locks.get(height)
        if block is not None:
            # Locked: this exact block (same hash) or nothing.
            self._count("pbft.lock_reproposals")
        else:
            prev_hash = self._parent_digest(height)
            if prev_hash is None:
                return False
            batch = peer.mempool.take(self.max_block_txs)
            if not batch:
                return False
            self._observe_order_wait(batch)
            if getattr(peer, "byzantine", False):
                self._propose_equivocating(height, prev_hash, batch)
                return True
            block = Block.build(
                height=height,
                prev_hash=prev_hash,
                timestamp=peer.sim.now,
                proposer=peer.node_id,
                transactions=batch,
            )
        payload = {"view": self.view, "height": height, "block": block}
        peer.broadcast(_PRE_PREPARE, payload)
        self._accept_pre_prepare(self.view, height, block, peer.node_id)
        return True

    def _propose_equivocating(self, height: int, prev_hash: str, batch: list) -> None:
        """Byzantine primary: send conflicting blocks to the two halves
        of the network.  PBFT's prepare quorum ensures at most one of the
        two digests can ever commit.

        Local round state is installed (block only — the equivocator does
        not vote) so :meth:`_requeue_stale_round` can return the taken
        transactions when the round is deposed; the seed skipped this,
        so a deposed equivocator's transactions vanished, and with a
        one-transaction batch its "conflicting" blocks were byte-identical
        (no equivocation at all)."""
        peer = self.peer
        assert peer is not None
        block_a = Block.build(height, prev_hash, peer.sim.now, peer.node_id, list(batch))
        conflicting = list(reversed(batch)) if len(batch) > 1 else []
        block_b = Block.build(height, prev_hash, peer.sim.now, peer.node_id, conflicting)
        state = self._round(self.view, height)
        state.block = block_a
        if state.started_at is None:
            state.started_at = peer.sim.now
        # The equivocator never votes for either digest itself; leaving
        # ``digest`` unset keeps _maybe_advance inert for this round (it
        # learns the winning block through sync instead).
        state.sent_prepare = True
        state.sent_commit = True
        others = [v for v in self.validators if v != peer.node_id]
        for index, validator in enumerate(others):
            chosen = block_a if index % 2 == 0 else block_b
            peer.send(validator, _PRE_PREPARE, {"view": self.view, "height": height, "block": chosen})

    # -- replica phases ---------------------------------------------------------

    def _accept_pre_prepare(self, view: int, height: int, block: Block, src: str) -> None:
        peer = self.peer
        assert peer is not None
        if view != self.view or src != self.primary_for(view):
            return
        if height <= peer.ledger.height:
            return
        if height > peer.ledger.height + self.pipeline_depth:
            # The primary is proposing beyond our pipeline window: either
            # we missed blocks or it is misbehaving; treat as a lag hint.
            peer.sync.note_remote_height(src, height - 1)
            return
        lock = self._locks.get(height)
        if lock is not None and lock.block_hash != block.block_hash:
            # We voted commit for another block here, in whatever view:
            # it may be decided elsewhere, so nothing else gets our vote.
            self._count("pbft.lock_refusals")
            return
        if height in self._commit_buffer:
            return  # already decided locally (quorum seen); nothing to add
        state = self._round(view, height)
        if state.digest is not None and state.digest != block.block_hash:
            return  # primary equivocated to us; keep the first
        state.digest = block.block_hash
        state.block = block
        if state.started_at is None:
            state.started_at = peer.sim.now
            state.span = peer.tracer.start(
                "pbft.round", peer=peer.node_id, height=height, view=view
            )
        self._reconcile_early_votes(state)
        if not state.sent_prepare and self._is_validator():
            state.sent_prepare = True
            state.prepares.add(peer.node_id)
            peer.broadcast(
                _PREPARE, {"view": view, "height": height, "digest": block.block_hash}
            )
        self._maybe_advance(view, height)

    def _reconcile_early_votes(self, state: _Round) -> None:
        """Promote stashed votes whose digest matches the just-installed
        pre-prepare; votes for any other digest are discarded — they
        must never count toward this round's quorum."""
        for votes, early in (
            (state.prepares, state.early_prepares), (state.commits, state.early_commits)
        ):
            votes.update(src for src, voted in early.items() if voted == state.digest)
            early.clear()

    def _on_prepare(self, view: int, height: int, digest: str, src: str) -> None:
        self._on_vote(view, height, digest, src, commit=False)

    def _on_commit(self, view: int, height: int, digest: str, src: str) -> None:
        self._on_vote(view, height, digest, src, commit=True)

    def _on_vote(self, view: int, height: int, digest: str, src: str, commit: bool) -> None:
        """A prepare or commit vote: channel-authenticated, counted only
        for a validator and only toward the digest it names."""
        assert self.peer is not None
        if not self._member(src):
            self._reject_nonvalidator()
            return  # only validators vote toward quorums
        self._note_lag_hint(src, height)
        if not self._in_window(view, height):
            return  # stale or far-future; don't allocate round state
        if height in self._commit_buffer:
            return  # already decided at this height
        state = self._round(view, height)
        votes, early = (
            (state.commits, state.early_commits) if commit
            else (state.prepares, state.early_prepares)
        )
        if state.digest is None:
            # Pre-prepare not seen yet: stash the vote with the digest it
            # names; it is counted (or dropped) at reconcile time.
            early[src] = digest
        elif digest == state.digest:
            votes.add(src)
            self._maybe_advance(view, height)

    def _maybe_advance(self, view: int, height: int) -> None:
        peer = self.peer
        assert peer is not None
        state = self._rounds.get((view, height))
        if state is None or state.digest is None:
            return
        head = peer.ledger.head
        if (
            not state.sent_commit
            and len(state.prepares) >= self.quorum
            and self._is_validator()
            # No vote, hence no lock, for a block that can never extend
            # this chain: the lock would hold the height against every
            # other block and nothing would ever release it.
            and (height != head.height + 1 or state.block.prev_hash == head.block_hash)
        ):
            state.sent_commit = True
            state.commits.add(peer.node_id)
            self._locks[height] = state.block
            peer.broadcast(_COMMIT, {"view": view, "height": height, "digest": state.digest})
        if (
            # An observer casts no vote of its own; the quorum it hears
            # decides for it.
            (state.sent_commit or not self._is_validator())
            and state.block is not None
            and len(state.commits) >= self.quorum
        ):
            self._decide(view, height, state)

    def _decide(self, view: int, height: int, state: _Round) -> None:
        """Commit quorum reached for (view, height): apply now if it is
        next in line, otherwise park it in the decided-block buffer until
        the gap below closes (heights may decide out of order under
        pipelining, but they always *apply* in order)."""
        peer = self.peer
        assert peer is not None
        decided = _Decided(
            block=state.block,
            digest=state.digest,
            certificate=sorted(state.commits),
            started_at=state.started_at,
            span=state.span,
        )
        self._rounds.pop((view, height), None)
        if height == peer.ledger.height + 1:
            if decided.block.prev_hash != peer.ledger.head.block_hash:
                # Same rule as _drain_commit_buffer: sync may have filled
                # this height's parent with a different block (the view
                # changed elsewhere), so a late commit quorum here is for
                # a block that can never extend this chain.  Applying it
                # would mutate world state before Ledger.append rejects
                # the linkage — discard instead, never apply unverified.
                self._discard_decided(decided)
                self._arm_view_timer()
                return
            self._apply_decided(height, decided)
            self._arm_view_timer()
            return
        decided.buffered_at = peer.sim.now
        self._commit_buffer[height] = decided
        self._observe_commit_buffer()

    def _apply_decided(self, height: int, decided: _Decided) -> None:
        peer = self.peer
        assert peer is not None
        if decided.started_at is not None:
            # Local pre-prepare → quorum-commit duration for this round.
            peer.obs.histogram("pbft.round", peer=peer.node_id).observe(
                peer.sim.now - decided.started_at
            )
        if decided.buffered_at is not None:
            peer.obs.histogram("pbft.commit_buffer_wait", peer=peer.node_id).observe(
                peer.sim.now - decided.buffered_at
            )
        if decided.span is not None:
            peer.tracer.finish(decided.span, outcome="committed")
        self._record_certificate(height, decided.digest, decided.certificate)
        peer.commit_block(decided.block)
        self._timer_height = peer.ledger.height

    def on_block_applied(self, block: Block) -> None:
        """Hook from :meth:`Peer.commit_block`: *any* applied block —
        consensus-committed here or sync-fetched — settles the rounds
        and locks at its height and may close the gap below buffered
        decided blocks; drain them in order."""
        for key in [k for k in self._rounds if k[1] <= block.height]:
            self._requeue_stale_round(self._rounds.pop(key))
        self._settle_locks()
        if self._applying:
            return  # a drain is already running above us on the stack
        self._applying = True
        try:
            self._drain_commit_buffer()
        finally:
            self._applying = False

    def _settle_locks(self) -> None:
        """Let go of what the applied head has settled: a lock at or
        below it (that height is applied), and a lock just above it whose
        parent is not the head — it extends a block that lost its height,
        so it was applied nowhere and never can be."""
        assert self.peer is not None
        head = self.peer.ledger.head
        for height in sorted(self._locks):
            lock = self._locks[height]
            if height <= head.height or (
                height == head.height + 1 and lock.prev_hash != head.block_hash
            ):
                del self._locks[height]
                self._requeue_block_txs(lock)

    def _drain_commit_buffer(self) -> None:
        peer = self.peer
        assert peer is not None
        if not self._commit_buffer:
            return
        while True:
            # Entries at or below the head lost their height to another
            # block (committed via sync while we sat on the quorum).
            for stale in [h for h in self._commit_buffer if h <= peer.ledger.height]:
                self._discard_decided(self._commit_buffer.pop(stale))
            next_height = peer.ledger.height + 1
            decided = self._commit_buffer.pop(next_height, None)
            if decided is None:
                break
            if decided.block.prev_hash != peer.ledger.head.block_hash:
                # Decided on top of a parent that lost its height across
                # a view change: the block can never extend this chain.
                self._discard_decided(decided)
                continue
            self._apply_decided(next_height, decided)
        self._observe_commit_buffer()

    def _discard_decided(self, decided: _Decided) -> None:
        assert self.peer is not None
        if decided.span is not None:
            self.peer.tracer.finish(decided.span, outcome="discarded")
        self._requeue_block_txs(decided.block)

    def _observe_commit_buffer(self) -> None:
        if self.peer is not None:
            self.peer.obs.gauge(
                "pbft.commit_buffer", peer=self.peer.node_id
            ).set(len(self._commit_buffer))

    def decided_heights(self) -> list[int]:
        """Heights decided locally but not yet applied (auditor probe)."""
        return sorted(self._commit_buffer)

    def _record_certificate(self, height: int, digest: str, certificate: list[str]) -> None:
        self.commit_certificates[height] = (digest, tuple(certificate))
        floor = height - self.CERTIFICATE_HISTORY
        if floor > 0 and (height % 1000) == 0:
            for record in (self.commit_certificates, self.synced_proofs):
                for old in [h for h in record if h < floor]:
                    del record[old]

    def _requeue_stale_round(self, state: _Round) -> None:
        """Return a discarded round's taken transactions to the mempool.

        A primary moves transactions from its mempool into the proposed
        block; if that round dies (view change deposed it, or another
        block won the height) those transactions would otherwise vanish
        silently.  Transactions that did commit are filtered out here by
        ledger lookup.
        """
        assert self.peer is not None
        if state.span is not None:
            self.peer.tracer.finish(state.span, outcome="superseded")
        if state.block is None:
            return
        self._requeue_block_txs(state.block)

    def _requeue_block_txs(self, block: Block) -> None:
        peer = self.peer
        assert peer is not None
        if block.proposer != peer.node_id:
            return
        lock = self._locks.get(block.height)
        if lock is not None and lock.block_hash == block.block_hash:
            return  # still ours to re-propose; returned when the lock goes
        peer.mempool.requeue(
            [tx for tx in block.transactions if tx.tx_id not in peer.ledger]
        )

    # -- view change ----------------------------------------------------------

    def _progress_token(self) -> tuple[int, int, int]:
        """Snapshot of everything the stall check treats as progress:
        the applied head plus the decided-block buffer's shape.  A
        replica whose buffer gained a height since the timer was armed is
        deciding blocks beyond the gap — pipelined progress, not a stall
        — even though its ledger height has not moved yet."""
        assert self.peer is not None
        return (
            self.peer.ledger.height,
            len(self._commit_buffer),
            max(self._commit_buffer, default=-1),
        )

    def _arm_view_timer(self) -> None:
        # Exactly one outstanding timer per replica: commits would
        # otherwise each spawn an immortal re-arming chain, flooding the
        # event queue and occasionally firing against stale heights.
        if self.stopped or self._timer_scheduled:
            return
        peer = self.peer
        assert peer is not None
        self._timer_scheduled = True
        expected = self._progress_token()
        self._timer_event = self.peer.sim.schedule(
            self.view_timeout,
            lambda: self._view_timer_fired(expected),
            label=f"pbft-timer:{peer.node_id}",
        )

    def _view_timer_fired(self, expected: tuple[int, int, int]) -> None:
        self._timer_scheduled = False
        if self.stopped:
            return
        peer = self.peer
        assert peer is not None
        has_work = (
            len(peer.mempool) > 0
            or bool(self._rounds)
            or bool(self._commit_buffer)
            # A lock is unfinished business even with nothing else in
            # hand: the views must turn until a locked primary's comes.
            or bool(self._locks)
        )
        stalled = has_work and self._progress_token() == expected
        if stalled and not peer.crashed and self._is_validator():
            proposal = self.view + 1
            self._vote_view_change(proposal, peer.node_id)
            peer.broadcast(_VIEW_CHANGE, {"new_view": proposal})
        self._arm_view_timer()

    def _vote_view_change(self, new_view: int, src: str) -> None:
        if not self._member(src):
            self._reject_nonvalidator()
            return  # only validators can depose a primary
        if not self.view < new_view <= self.view + self.VIEW_WINDOW:
            return  # stale, or unreachably far ahead (bounds _view_votes)
        votes = self._view_votes.setdefault(new_view, set())
        votes.add(src)
        if len(votes) >= self.quorum:
            self.view = new_view
            self.view_changes_completed += 1
            self._count("pbft.view_changes")
            # Re-queue across the whole pipeline window: every deposed
            # round at every in-flight height returns its transactions.
            for key in [k for k in self._rounds if k[0] < new_view]:
                self._requeue_stale_round(self._rounds.pop(key))
            self._prune_commit_buffer()
            self._view_votes = {v: s for v, s in self._view_votes.items() if v > new_view}

    def _prune_commit_buffer(self) -> None:
        """Drop decided-but-unapplied blocks orphaned by a view change.

        A buffered block at height ``h`` links (by ``prev_hash``) to an
        uncommitted block at ``h - 1``.  Once deposed rounds have been
        requeued, that parent can only still materialise from the
        applied head, a surviving round, a lock, or another buffered
        entry; any other linkage means the gap below can never close
        from here — yet the entry would keep refusing pre-prepares at
        its height, stalling the chain through repeated view changes.
        Discard such entries.  (If the parent did commit elsewhere it
        re-arrives via sync.)
        """
        peer = self.peer
        if peer is None or not self._commit_buffer:
            return
        producible = {peer.ledger.head.block_hash}
        producible.update(
            state.digest for state in self._rounds.values() if state.digest is not None
        )
        producible.update(lock.block_hash for lock in self._locks.values())
        for height in sorted(self._commit_buffer):
            decided = self._commit_buffer[height]
            if decided.block.prev_hash in producible:
                producible.add(decided.digest)
                continue
            self._discard_decided(self._commit_buffer.pop(height))
        self._observe_commit_buffer()

    def pending_txs(self) -> set[str]:
        """Tx ids held in open (uncommitted) rounds, in the decided
        buffer and in locked blocks.

        The durability auditor counts these as pending: a replica cut
        off from a view change it never saw keeps its in-flight round
        alive, and the transactions in it are retained, not dropped —
        they re-enter the mempool the moment the round is superseded
        (see ``_requeue_stale_round``).  Decided-but-unapplied and
        locked blocks likewise hold their transactions until they apply
        or are let go (and re-queued).
        """
        blocks = [state.block for state in self._rounds.values() if state.block is not None]
        blocks += [decided.block for decided in self._commit_buffer.values()]
        blocks += self._locks.values()
        return {tx.tx_id for block in blocks for tx in block.transactions}

    # -- sync -------------------------------------------------------------------

    def attested_hash(self, height: int) -> str | None:
        """Applied — or voted commit for, on top of the applied head.
        Only then: a commit vote says nothing about what lies below the
        block, and whoever fetches it takes everything below a certified
        tip on the strength of the hash chain."""
        assert self.peer is not None
        head = self.peer.ledger.head
        lock = self._locks.get(height)
        if lock is not None and (height, lock.prev_hash) == (head.height + 1, head.block_hash):
            return lock.block_hash
        return super().attested_hash(height)

    def verify_synced_block(self, block: Block, proof: Any) -> bool:
        """A fetched tip needs statements from 2f+1 distinct validators —
        or from f+1 that say they *applied* it, one of whom is honest.

        *proof* is ``{"signers": [...], "signatures": {name: hex},
        "voted": [...]}`` (the last may be absent); anything else is
        refused.  Signers whose key is registered only count when their
        Ed25519 signature over the statement for this block's (height,
        hash), in the form the proof says they signed, verifies — all
        such signatures are checked in ONE batched call.  Signers with no
        registered key fall back to the name-set check (keyless unit-test
        engines), and a name alone never says "applied".
        """
        if not isinstance(proof, dict):
            return False
        signers, signatures = proof.get("signers"), proof.get("signatures")
        voted = proof.get("voted", ())
        if not (
            isinstance(signers, (list, tuple))
            and isinstance(signatures, dict)
            and isinstance(voted, (list, tuple))
        ):
            return False
        counted: set[str] = set()
        items: list[tuple[bytes, bytes, bytes]] = []
        item_signers: list[str] = []
        for signer in sorted(set(signers) & self._validator_set):
            key = self.validator_keys.get(signer)
            if key is None:
                counted.add(signer)
                continue
            sig_hex = signatures.get(signer)
            try:
                sig = bytes.fromhex(sig_hex) if isinstance(sig_hex, str) else None
            except ValueError:
                sig = None
            if sig is None:
                continue  # known validator, no usable signature: not counted
            message = statement_message(signer, block.height, block.block_hash, signer in voted)
            items.append((key, message, sig))
            item_signers.append(signer)
        verified: set[str] = set()
        if items:
            labels = {"peer": self.peer.node_id} if self.peer is not None else {}
            registry = self.peer.obs if self.peer is not None else None
            verdicts = verify_many(items, registry=registry, **labels)
            verified = {s for s, ok in zip(item_signers, verdicts) if ok}
        return len(counted | verified) >= self.quorum or len(verified - set(voted)) > self.f

    def on_synced_block(self, block: Block, proof: Any) -> None:
        self.synced_proofs[block.height] = proof

    def on_restart(self) -> None:
        """Crash-restart: open rounds, vote tallies, the decided-block
        buffer, and timers are volatile and do not survive; the view
        number and the locks are recovered from stable storage
        (Castro–Liskov §4.3 persists the view for exactly this reason),
        so they are kept.  Records above the recovered head go: their
        blocks did not survive the disk."""
        for event in (self._tick_event, self._timer_event):
            if event is not None:
                event.cancel()
        self._tick_event = self._timer_event = None
        if self.peer is not None:
            for state in self._rounds.values():
                if state.span is not None:
                    self.peer.tracer.finish(state.span, outcome="restart")
            for decided in self._commit_buffer.values():
                if decided.span is not None:
                    self.peer.tracer.finish(decided.span, outcome="restart")
            head = self.peer.ledger.height
            for record in (self.commit_certificates, self.synced_proofs):
                for height in [h for h in record if h > head]:
                    del record[height]
        self._rounds.clear()
        self._commit_buffer.clear()
        self._observe_commit_buffer()
        self._view_votes.clear()
        self._tick_scheduled = False
        self._timer_scheduled = False
        self._timer_height = -1
        self._applying = False
        self._settle_locks()
        self.start()

    # -- dispatch ----------------------------------------------------------------

    def on_message(self, message: Message) -> bool:
        payload = message.payload
        if message.kind == _PRE_PREPARE:
            self._accept_pre_prepare(payload["view"], payload["height"], payload["block"], message.src)
        elif message.kind == _PREPARE:
            self._on_prepare(payload["view"], payload["height"], payload["digest"], message.src)
        elif message.kind == _COMMIT:
            self._on_commit(payload["view"], payload["height"], payload["digest"], message.src)
        elif message.kind == _VIEW_CHANGE:
            self._vote_view_change(payload["new_view"], message.src)
        else:
            return False
        return True
