"""PBFT over the simulated network: the driver around :mod:`.pbft_core`.

The protocol — rounds, quorums, the lock, the decided buffer, view
changes, and how this PBFT differs from Castro & Liskov — lives in
:class:`~repro.chain.consensus.pbft_core.PBFTCore`, a transition function
with no transport.  :class:`PBFTEngine` is everything around it:

- **The boundary.**  A consensus payload is input from another process:
  :meth:`PBFTEngine.on_message` decodes it into the core's typed message
  or, if a field is missing or of the wrong type (or a pre-prepare's
  block is not at its height), counts it under
  ``peer.messages_malformed{kind}`` and drops it.  The core never sees an
  untyped payload.
- **Effects.**  The core's effects are carried out in the order it
  returned them: a broadcast becomes ``peer.broadcast(kind, payload)``, an
  apply records the commit quorum's names (``commit_certificates``, read
  by the invariant auditor) and calls ``peer.commit_block`` — whose hook,
  :meth:`PBFTEngine.on_block_applied`, hands the block back to the core,
  as it does for every block sync applies — a re-queue returns a dead
  proposal's uncommitted transactions to the mempool, a lag hint goes to
  the :class:`~repro.chain.sync.SyncManager`, and counts go to the
  registry (``pbft.view_changes``, ``pbft.lock_refusals``,
  ``pbft.lock_reproposals``, ``pbft.votes_rejected_nonvalidator``).
- **Time.**  The tick (every ``block_interval``) takes from the mempool
  and builds blocks for the primary's open heights — the mempool reserves
  what it hands out, so an echo cannot put a transaction into a second
  in-flight block; the view timer (``view_timeout``) is armed with the
  core's progress token and fed back to it when it fires.
- **Observability.**  One ``pbft.round`` span per round, from its
  pre-prepare to committed / discarded / superseded / restart; the
  ``pbft.round`` and ``pbft.commit_buffer_wait`` histograms (the second
  only for decisions that waited for a gap); the ``pbft.commit_buffer``
  and ``pbft.pipeline_depth`` gauges.
- **Sync.**  State transfer for a replica that fell behind is the sync
  manager's: it learns heights from signed announcements and from the
  lag hints, and applies a fetched batch only when enough validators have
  signed a statement for its tip (:meth:`PBFTEngine.verify_synced_block`;
  the statement forms are in the core's docstring).
- **Restart.**  The view and the locks are stable storage; everything else
  — rounds, votes, the decided buffer, spans, timers — is rebuilt empty
  around them (:meth:`PBFTEngine.on_restart`).
- **Faults.**  A byzantine peer's primary equivocates
  (:meth:`PBFTEngine._equivocate`): a fault the harness injects, kept in
  the driver, not protocol.
"""

from __future__ import annotations

from typing import Any

from repro.chain.block import Block
from repro.chain.consensus.base import ConsensusEngine
from repro.chain.consensus.pbft_core import (
    Apply,
    Broadcast,
    Commit,
    Count,
    LagHint,
    PBFTCore,
    PrePrepare,
    Prepare,
    Requeue,
    RoundEvent,
    ViewChange,
    max_faulty,
    primary_of,
    quorum_size,
)
from repro.chain.sync import statement_message
from repro.crypto.batch import verify_many
from repro.obs.trace import Span
from repro.simnet.network import Message

__all__ = ["PBFTEngine"]

#: wire kind -> (message type, the types of its fields): the boundary check.
_WIRE = {
    PrePrepare.kind: (PrePrepare, (int, int, Block)),
    Prepare.kind: (Prepare, (int, int, str)),
    Commit.kind: (Commit, (int, int, str)),
    ViewChange.kind: (ViewChange, (int,)),
}



def _payload(message: PrePrepare | Prepare | Commit | ViewChange) -> dict[str, Any]:
    return {name: getattr(message, name) for name in message.__match_args__}


class PBFTEngine(ConsensusEngine):
    """PBFT for one peer: a :class:`PBFTCore` and the effects it asks for."""

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
        self.block_interval = block_interval
        self.view_timeout = view_timeout
        self.max_block_txs = max_block_txs
        #: In-flight sequence-number window: the primary may have this
        #: many uncommitted heights proposed at once (1 = one block at a time).
        self.pipeline_depth = pipeline_depth
        #: The protocol state; built by :meth:`attach`, rebuilt around the
        #: view and the locks by :meth:`on_restart`.
        self.core: PBFTCore | None = None
        #: (view, height) -> the round's span, and when its decision began
        #: waiting for the gap below (decisions that waited only).
        self._spans: dict[tuple[int, int], Span] = {}
        self._waiting: dict[tuple[int, int], float] = {}
        self._tick_scheduled = False
        self._timer_scheduled = False
        self._tick_event = None
        self._timer_event = None
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

    @property
    def n(self) -> int:
        return len(self.validators)

    @property
    def f(self) -> int:
        return max_faulty(self.n)

    @property
    def quorum(self) -> int:
        return quorum_size(self.n)

    def primary_for(self, view: int) -> str:
        return primary_of(self.validators, view)

    @property
    def view(self) -> int:
        return self.core.view

    def attach(self, peer: Any) -> None:
        super().attach(peer)
        self.core = self._new_core(peer.ledger.head)
        node = peer.node_id
        peer.obs.gauge("pbft.pipeline_depth", peer=node).set(self.pipeline_depth)
        self._round_hist = peer.obs.histogram("pbft.round", peer=node)
        self._buffer_wait = peer.obs.histogram("pbft.commit_buffer_wait", peer=node)
        self._buffer_gauge = peer.obs.gauge("pbft.commit_buffer", peer=node)

    def _new_core(self, head: Block, view: int = 0, locks: dict | None = None) -> PBFTCore:
        return PBFTCore(self.validators, self.peer.node_id, self.pipeline_depth, head, view, locks)

    # -- time -----------------------------------------------------------------

    def start(self) -> None:
        self._schedule_tick()
        self._arm_view_timer()

    def _schedule_tick(self) -> None:
        if self.stopped or self._tick_scheduled:
            return
        self._tick_scheduled = True
        self._tick_event = self.peer.sim.schedule(
            self.block_interval, self._tick, label=f"pbft-tick:{self.peer.node_id}"
        )

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self.stopped:
            return
        peer, core = self.peer, self.core
        if (
            core.primary(core.view) == peer.node_id
            and not peer.crashed
            # A primary that knows it is behind must sync before it
            # proposes: a stale-height pre-prepare can never gather
            # quorum and only wastes the round.
            and not peer.sync.is_lagging()
        ):
            for height, parent in core.open_heights():
                if parent is None:
                    # A locked height is re-proposed whether or not anything
                    # new is waiting: the block may be decided elsewhere.
                    self._run(core.propose(height))
                    continue
                batch = peer.mempool.take(self.max_block_txs) if len(peer.mempool) > 0 else []
                if not batch:
                    break
                self._observe_order_wait(batch)
                if peer.byzantine:
                    self._equivocate(height, parent, batch)
                    continue
                block = Block.build(height, parent, peer.sim.now, peer.node_id, batch)
                self._run(core.propose(height, block))
        self._schedule_tick()

    def _equivocate(self, height: int, prev_hash: str, batch: list) -> None:
        """Byzantine primary: conflicting blocks to the two halves of the
        network, and a vote for neither.  The prepare quorum lets at most
        one of them commit; the core keeps the first as a withheld round,
        so its transactions come back when the round is deposed."""
        peer, view = self.peer, self.core.view
        block_a = Block.build(height, prev_hash, peer.sim.now, peer.node_id, list(batch))
        conflicting = list(reversed(batch)) if len(batch) > 1 else []
        block_b = Block.build(height, prev_hash, peer.sim.now, peer.node_id, conflicting)
        self.core.withhold(height, block_a)
        others = [v for v in self.validators if v != peer.node_id]
        for index, validator in enumerate(others):
            message = PrePrepare(view, height, block_b if index % 2 else block_a)
            peer.send(validator, message.kind, _payload(message))

    def _arm_view_timer(self) -> None:
        # Exactly one outstanding timer per replica, armed with the
        # progress it must see move.
        if self.stopped or self._timer_scheduled:
            return
        self._timer_scheduled = True
        self._timer_event = self.peer.sim.schedule(
            self.view_timeout, self._view_timer_fired,
            label=f"pbft-timer:{self.peer.node_id}", args=(self.core.progress(),),
        )

    def _view_timer_fired(self, token: tuple[int, int, int]) -> None:
        self._timer_scheduled = False
        if self.stopped:
            return
        if not self.peer.crashed:
            self._run(self.core.timeout(token, len(self.peer.mempool) > 0))
        self._arm_view_timer()

    # -- effects ----------------------------------------------------------------

    def _run(self, effects: list) -> None:
        """Carry out the core's effects in the order it returned them."""
        peer = self.peer
        for effect in effects:
            match effect:
                case Broadcast(message):
                    peer.broadcast(message.kind, _payload(message))
                case Count(metric):
                    peer.obs.counter(metric, peer=peer.node_id).inc()
                case LagHint(src, height):
                    peer.sync.note_remote_height(src, height)
                case RoundEvent(view, height, "opened"):
                    self._spans[view, height] = peer.tracer.start(
                        "pbft.round", peer=peer.node_id, height=height, view=view
                    )
                case RoundEvent(view, height, "decided"):
                    self._waiting[view, height] = peer.sim.now
                    self._buffer_gauge.set(len(self.core.decided))
                case RoundEvent(view, height, outcome):
                    self._close(view, height, outcome)
                case Requeue(block):
                    peer.mempool.requeue(
                        [tx for tx in block.transactions if tx.tx_id not in peer.ledger]
                    )
                case Apply(view, block, certificate):
                    self._close(view, block.height, "committed")
                    self._record_certificate(block.height, block.block_hash, certificate)
                    peer.commit_block(block)

    def _close(self, view: int, height: int, outcome: str) -> None:
        """A round left the core: finish its span; a committed one's
        durations go to the histograms."""
        peer = self.peer
        span = self._spans.pop((view, height), None)
        waited = self._waiting.pop((view, height), None)
        if outcome == "committed" and span is not None:
            # Local pre-prepare -> quorum-commit duration for this round.
            self._round_hist.observe(peer.sim.now - span.start)
        if waited is not None:
            if outcome == "committed":
                self._buffer_wait.observe(peer.sim.now - waited)
            self._buffer_gauge.set(len(self.core.decided))
        if span is not None:
            peer.tracer.finish(span, outcome=outcome)

    def _record_certificate(self, height: int, digest: str, certificate: tuple[str, ...]) -> None:
        self.commit_certificates[height] = (digest, certificate)
        floor = height - self.CERTIFICATE_HISTORY
        if floor > 0 and (height % 1000) == 0:
            for record in (self.commit_certificates, self.synced_proofs):
                for old in [h for h in record if h < floor]:
                    del record[old]

    # -- the peer's hooks --------------------------------------------------------

    def on_message(self, message: Message) -> bool:
        wire = _WIRE.get(message.kind)
        if wire is None:
            return False
        kind, types = wire
        payload = message.payload
        if isinstance(payload, dict):
            values = [payload.get(name) for name in kind.__match_args__]
            # A pre-prepare's block must sit at the height it is proposed for.
            if all(map(isinstance, values, types)) and (
                kind is not PrePrepare or values[2].height == values[1]
            ):
                self._run(self.core.receive(message.src, kind(*values)))
                return True
        self.peer.drop_malformed(message)
        return True

    def on_block_applied(self, block: Block) -> None:
        """Hook from :meth:`Peer.commit_block`: *any* applied block —
        decided here or fetched by sync — settles the core's rounds and
        locks at its height and may unblock the decided block above."""
        self._run(self.core.applied(block))

    def on_restart(self) -> None:
        """Crash-restart: rounds, votes, the decided buffer, spans and
        timers are volatile and die; the view and the locks are stable
        storage (Castro–Liskov §4.3 persists the view for exactly this
        reason), so a fresh core is built around them and the recovered
        head.  Certificate records above that head go with their blocks."""
        for event in (self._tick_event, self._timer_event):
            if event is not None:
                event.cancel()
        self._tick_event = self._timer_event = None
        peer = self.peer
        for span in self._spans.values():
            peer.tracer.finish(span, outcome="restart")
        self._spans.clear()
        self._waiting.clear()
        head = peer.ledger.head
        for record in (self.commit_certificates, self.synced_proofs):
            for height in [h for h in record if h > head.height]:
                del record[height]
        self.core = self._new_core(head, self.core.view, self.core.locks)
        self._buffer_gauge.set(len(self.core.decided))
        self._tick_scheduled = self._timer_scheduled = False
        self._run(self.core.applied(head))
        self.start()

    # -- what the auditor and the sync manager ask -------------------------------

    def decided_heights(self) -> list[int]:
        """Heights decided locally but not yet applied (auditor probe)."""
        return sorted(self.core.decided)

    def pending_txs(self) -> set[str]:
        """Tx ids held in open rounds, in the decided buffer and in locked
        blocks: not dropped — they are applied, or re-enter the mempool
        when their round is superseded or their lock lets go."""
        core = self.core
        blocks = [rnd.block for rnd in core.rounds.values() if rnd.block is not None]
        blocks += [rnd.block for rnd in core.decided.values()]
        blocks += core.locks.values()
        return {tx.tx_id for block in blocks for tx in block.transactions}

    def attested_hash(self, height: int) -> str | None:
        """Applied — or voted commit for, on top of the applied head."""
        return self.core.voted(height) or super().attested_hash(height)

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
        for signer in sorted(set(signers).intersection(self.validators)):
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
            meter = self.peer.verify_meter if self.peer is not None else None
            verdicts = verify_many(items, meter)
            verified = {s for s, ok in zip(item_signers, verdicts) if ok}
        return len(counted | verified) >= self.quorum or len(verified - set(voted)) > self.f

    def on_synced_block(self, block: Block, proof: Any) -> None:
        self.synced_proofs[block.height] = proof
