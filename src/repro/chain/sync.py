"""Consensus-agnostic block sync over the simulated network: the driver
around :mod:`.sync_core`.

Every :class:`~repro.chain.peer.Peer` owns a :class:`SyncManager`.  It is
the one place a peer learns that it has fallen behind — a crash window,
a partition, or plain message loss — and the one place missed blocks are
fetched, verified, and applied.  Both consensus engines rely on it: a
PBFT replica that missed a decision has no other way to learn the block,
and the PoA orderer hands it every block it receives.  The rules — when
to fetch and from whom, the strikes and the backoff, when a held batch is
certified, refuted or cut, the future buffer — live in
:class:`~repro.chain.sync_core.SyncCore`, a transition function with no
transport (its docstring has the protocol argument).
:class:`SyncManager` is everything around it:

- **Signatures.**  Every ``ANNOUNCE_INTERVAL`` each live peer broadcasts
  its head as a signed statement (:func:`statement_message`), and a
  validator answers ``sync-attest-request {height}`` with the statement
  for the block it applied there — or voted commit for on top of its head
  (:meth:`~repro.chain.consensus.base.ConsensusEngine.attested_hash`) — or
  not at all.  A statement is signed the first time it is wanted and
  remembered (``SIGNED_MEMO`` of them), so a flood of attest requests
  costs lookups, not signatures.  A statement is checked against the key
  pinned for its sender on first use before it reaches the core; an
  announcement at or below our head is taken unverified — a lie there can
  never trigger a fetch.
- **The boundary.**  A sync payload is input from another process:
  :meth:`SyncManager.on_message` checks its shape (a dict; a request's
  ``req_id``, ``start`` and ``end``; a response's ``blocks`` list) or
  counts it under ``peer.messages_malformed{kind}`` and drops it, and a
  response's items that are not blocks never reach the core.
- **Serving.**  A ranged fetch is answered from the committed chain, at
  most ``MAX_BATCH`` blocks — the same bound a request asks for.
- **Effects.**  The core's effects are carried out in the order it
  returned them: requests and attest requests become messages, a schedule
  a simulator timer whose firing goes back to the core with its token, a
  closed request cancels its timers and finishes its ``sync.fetch`` span,
  an apply records a tip's proof with the engine (``on_synced_block``),
  checks every signature of the batch in one pass and commits the blocks,
  and the lag clock feeds ``sync.lag_blocks``, ``phase.sync_fetch`` and the
  ``sync.max_lag_blocks`` gauge.  Counters are registry handles, taken once.
- **Restart.**  A process restart drops every timer and the in-flight
  fetch; blocks the durable store acknowledged but could not recover are
  counted (``sync.store_truncated_blocks``) and re-fetched, the lag clock
  running from the restart.

All timing and jitter come from the shared simulator and a
``random.Random`` seeded from the node id, so runs remain a pure
function of their seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.sync_core import (Apply, AttestRequest, CaughtUp, Closed, Count, Forget, LagStart,
                                   Request, Schedule, Statement, SyncCore, Token)
from repro.chain.transaction import signature_items
from repro.crypto.batch import verify_many
from repro.crypto.keys import verify_signature
from repro.simnet.events import Event
from repro.simnet.network import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.peer import Peer

__all__ = ["SyncManager", "statement_message", "KIND_ANNOUNCE", "KIND_REQUEST", "KIND_RESPONSE",
           "KIND_ATTEST_REQUEST", "KIND_ATTEST"]

KIND_ANNOUNCE = "sync-announce"
KIND_REQUEST = "sync-request"
KIND_RESPONSE = "sync-response"
KIND_ATTEST_REQUEST = "sync-attest-request"
KIND_ATTEST = "sync-attest"

#: wire kind -> its handler, looked up on the instance (a test may replace one).
_HANDLERS = {KIND_ANNOUNCE: "_on_announce", KIND_REQUEST: "_on_request",
             KIND_RESPONSE: "_on_response", KIND_ATTEST_REQUEST: "_on_attest_request",
             KIND_ATTEST: "_on_attest"}

#: Per-peer counters, registered up front so that a report lists them at 0.
_COUNTERS = ("sync.announcements_sent", "sync.announcements_verified",
             "sync.announcements_rejected", "sync.requests_sent", "sync.attest_requests_sent",
             "sync.statements_verified", "sync.responses_served", "sync.retries", "sync.timeouts",
             "sync.provider_failovers", "sync.stale_responses", "sync.blocks_synced",
             "sync.invalid_blocks", "sync.buffered_future", "sync.store_truncated_blocks",
             "sync.lag_blocks")


def _well_formed(kind: str, payload: Any) -> bool:
    """The boundary check: every sync payload is a dict, and the fields a
    handler uses without looking at their type have the type it assumes
    (the handlers check the rest where they read it)."""
    if not isinstance(payload, dict):
        return False
    if kind == KIND_REQUEST:
        return (isinstance(payload.get("req_id"), str)
                and isinstance(payload.get("start"), int) and isinstance(payload.get("end"), int))
    return kind != KIND_RESPONSE or isinstance(payload.get("blocks", ()), (list, tuple))


def statement_message(node_id: str, height: int, block_hash: str, voted: bool = False) -> bytes:
    """Canonical byte string of the statement a peer signs: *node_id*
    applied *block_hash* at *height* — its head when announced, any height
    of its ledger when asked — or, the *voted* form, has not applied it
    yet but voted commit for it on top of its applied head."""
    kind = "sync-voted" if voted else "sync-announce"
    return f"{kind}|{node_id}|{height}|{block_hash}".encode()


class SyncManager:
    """Sync for one peer: a :class:`SyncCore` and the effects it asks for."""

    #: At most this many blocks per sync-response (bounds message size),
    #: and so per request.
    MAX_BATCH = 64
    #: Simulated seconds between two announcements of the head.
    ANNOUNCE_INTERVAL = 2.0
    #: Statements of its own a peer remembers having signed.
    SIGNED_MEMO = 16
    #: The core's failover rule, for whoever asks the manager.
    PROVIDER_PATIENCE = SyncCore.PROVIDER_PATIENCE

    def __init__(self, peer: "Peer"):
        self.peer = peer
        obs, node = peer.obs, peer.node_id
        self._counters = {name: obs.counter(name, peer=node) for name in _COUNTERS}
        #: The sim seconds of every completed catch-up (its blocks:
        #: ``sync.lag_blocks``), and the largest lag one started from.
        self._catchup = obs.histogram("phase.sync_fetch", peer=node)
        self._max_lag_blocks = obs.gauge("sync.max_lag_blocks", peer=node)
        self._future_buffer = obs.gauge("sync.future_buffer", peer=node)
        self.stopped = False
        self.core = SyncCore(
            node, peer.engine.validators, peer.engine.quorum, peer.ledger.head,
            certified=lambda block, proof: peer.engine.verify_synced_block(block, proof),
            vouch=self._vouch, down=lambda: self.stopped or peer.crashed,
        )
        #: node id -> highest height it has credibly claimed (the core's).
        self.known_heights = self.core.known_heights
        #: node id -> pinned announcement public key (trust on first use).
        self._announced_keys: dict[str, bytes] = {}
        #: (height, hash, voted) -> own signature, oldest dropped first.
        self._signed: dict[tuple[int, str, bool], bytes] = {}
        self._announce_event: Event | None = None
        #: timer kind -> its pending event (there is at most one of each).
        self._timers: dict[str, Event] = {}
        self._span = None
        self._lag_since = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic announcement loop (idempotent)."""
        if self._announce_event is None and not self.stopped:
            self._announce_event = self.peer.sim.schedule(
                self.ANNOUNCE_INTERVAL, self._announce_tick,
                label=f"sync-announce:{self.peer.node_id}")

    def stop(self) -> None:
        self.stopped = True
        if self._announce_event is not None:
            self._announce_event.cancel()
            self._announce_event = None
        self._run(self.core.halt())

    def on_restart(self, report: Any = None) -> None:
        """Drop volatile sync state after a simulated process restart.

        *report* is the storage backend's
        :class:`~repro.chain.store.RecoveryReport` when the peer
        recovered through a durable store (``None`` for the in-memory
        backend).  A recovery that had to truncate damaged log records is
        recorded here: those blocks are gone locally and it is this
        manager's job to re-fetch them, so the loss is surfaced as sync
        lag metrics rather than silently absorbed.
        """
        lost = len(getattr(report, "missing_acked", {}) or {})
        self._counters["sync.store_truncated_blocks"].inc(lost)
        self._run(self.core.restart(self.peer.ledger.head, lost))
        # The announce loop keeps its schedule: a restarted process would
        # re-arm the same timer on boot.
        self.start()

    def on_block_applied(self, block: Block) -> None:
        """Hook from :meth:`Peer.commit_block`: every block the ledger takes."""
        self.core.applied(block)

    # -- statements ----------------------------------------------------------

    def _announce_tick(self) -> None:
        self._announce_event = None
        ledger = self.peer.ledger
        if not (self.stopped or self.peer.crashed):
            self.peer.broadcast(KIND_ANNOUNCE,
                                self._statement(ledger.height, ledger.head.block_hash))
            self._counters["sync.announcements_sent"].inc()
        self.start()

    def _statement(self, height: int, block_hash: str) -> dict[str, Any]:
        """This peer's signed statement for ``(height, block_hash)`` — in
        the voted form while *height* lies above its ledger — signed the
        first time it is wanted."""
        peer = self.peer
        voted = height > peer.ledger.height
        signature = self._signed.get((height, block_hash, voted))
        if signature is None:
            if len(self._signed) >= self.SIGNED_MEMO:
                del self._signed[next(iter(self._signed))]
            signature = self._signed[(height, block_hash, voted)] = peer.keypair.sign(
                statement_message(peer.node_id, height, block_hash, voted))
        return {"node_id": peer.node_id, "height": height, "head_hash": block_hash, "voted": voted,
                "public_key": peer.keypair.public_key, "signature": signature}

    def _vouch(self, tip: Block) -> tuple[str, bool] | None:
        """Our own word on a fetched tip (the core asks a validator only),
        if we applied it or voted commit for it."""
        if self.peer.engine.attested_hash(tip.height) == tip.block_hash:
            own = self._statement(tip.height, tip.block_hash)
            return own["signature"].hex(), own["voted"]
        return None

    def _verify_statement(self, message: Message, voted: bool = False) -> Statement | None:
        """The statement in *message* if it is its sender's own, signed
        in the given form with the key pinned for that sender; otherwise
        ``None``."""
        payload, src = message.payload, message.src
        height, block_hash = payload.get("height"), payload.get("head_hash")
        public_key, signature = payload.get("public_key"), payload.get("signature")
        if not (
            payload.get("node_id") == src and isinstance(height, int)
            and isinstance(block_hash, str) and isinstance(public_key, bytes)
            and isinstance(signature, bytes)
            and self._announced_keys.get(src, public_key) == public_key
            and verify_signature(
                public_key, statement_message(src, height, block_hash, voted), signature)
        ):
            return None
        self._announced_keys.setdefault(src, public_key)
        return Statement(height, block_hash, signature.hex(), voted)

    def _on_announce(self, message: Message) -> None:
        payload, src = message.payload, message.src
        height = payload.get("height")
        if (isinstance(height, int) and payload.get("node_id") == src
                and height <= self.peer.ledger.height):
            self._run(self.core.claim(src, height, own_word=True))
            return
        statement = self._verify_statement(message)
        if statement is None:
            self._counters["sync.announcements_rejected"].inc()
            return
        self._counters["sync.announcements_verified"].inc()
        self._run(self.core.statement(src, statement, announced=True))

    def _on_attest_request(self, message: Message) -> None:
        """Vouch for the block we applied at the asked height, or voted
        commit for on top of our head; say nothing while we can do
        neither (whoever needs the answer asks again)."""
        height = message.payload.get("height")
        block_hash = self.peer.engine.attested_hash(height) if isinstance(height, int) else None
        if block_hash is not None:
            self.peer.send(message.src, KIND_ATTEST, self._statement(height, block_hash))

    def _on_attest(self, message: Message) -> None:
        """A validator's answer: checked here, kept by the core."""
        src = message.src
        if src not in self.core.validators:
            self._run([Count("sync.statements_rejected", "non-validator")])
            return
        statement = self._verify_statement(message, message.payload.get("voted") is True)
        if statement is None:
            self._run([Count("sync.statements_rejected", "bad-signature")])
            return
        self._run(self.core.statement(src, statement, announced=False))

    # -- blocks ----------------------------------------------------------------

    def note_remote_height(self, src: str, height: int) -> None:
        """A node credibly holds chain up to *height*; sync if we lag."""
        self._run(self.core.claim(src, height))

    def is_lagging(self) -> bool:
        """Does any known node hold a longer chain than ours?"""
        return self.core.lagging()

    def offer_block(self, block: Block, src: str) -> None:
        """A block that carries its own authority (a PoA leader's
        broadcast) arrived from *src*, possibly ahead."""
        self._run(self.core.offer(src, block))

    def _on_request(self, message: Message) -> None:
        """Serve a ranged fetch from our committed chain."""
        payload, ledger = message.payload, self.peer.ledger
        start = max(1, payload["start"])
        end = min(payload["end"], ledger.height, start + self.MAX_BATCH - 1)
        self._counters["sync.responses_served"].inc()
        self.peer.send(message.src, KIND_RESPONSE, {
            "req_id": payload["req_id"], "height": ledger.height,
            "blocks": [ledger.block(h) for h in range(start, end + 1)]})

    def _on_response(self, message: Message) -> None:
        payload, height = message.payload, message.payload.get("height")
        self._run(self.core.response(
            message.src, payload.get("req_id"), height if isinstance(height, int) else None,
            [block for block in payload.get("blocks", ()) if isinstance(block, Block)]))

    # -- effects -----------------------------------------------------------------

    def _fire(self, token: Token) -> None:
        self._timers.pop(token[0], None)
        self._run(self.core.fire(token))

    def _run(self, effects: list) -> None:
        """Carry out the core's effects in the order it returned them; an
        apply — always the last of its input — is followed by whatever the
        core does next from the head the ledger reached."""
        peer, node = self.peer, self.peer.node_id
        while effects:
            for effect in effects:
                match effect:
                    case Request(req_id, provider, start, end):
                        end = min(end, start + self.MAX_BATCH - 1)
                        self._span = peer.tracer.start("sync.fetch", peer=node, provider=provider,
                                                       start=start, end=end, req_id=req_id)
                        self._counters["sync.requests_sent"].inc()
                        peer.send(provider, KIND_REQUEST,
                                  {"req_id": req_id, "start": start, "end": end})
                    case AttestRequest(validator, height):
                        peer.send(validator, KIND_ATTEST_REQUEST, {"height": height})
                        self._counters["sync.attest_requests_sent"].inc()
                    case Schedule(token, delay):
                        self._timers[token[0]] = peer.sim.schedule(
                            delay, self._fire, label=f"sync-{token[0]}:{node}", args=(token,))
                    case Closed(outcome):
                        for event in self._timers.values():
                            event.cancel()
                        self._timers.clear()
                        if self._span is not None:
                            peer.tracer.finish(self._span, outcome=outcome)
                            self._span = None
                    case Forget():
                        self._counters["sync.provider_failovers"].inc()
                    case Count(metric, None):
                        self._counters[metric].inc()
                    case Count(metric, reason):
                        peer.obs.counter(metric, peer=node, reason=reason).inc()
                    case LagStart(behind):
                        self._lag_since = peer.sim.now
                        self._max_lag_blocks.set(max(self._max_lag_blocks.value, behind))
                    case CaughtUp(blocks):
                        self._counters["sync.lag_blocks"].inc(blocks)
                        self._catchup.observe(peer.sim.now - self._lag_since)
                    case Apply(batch, proof):
                        if proof is not None:
                            peer.engine.on_synced_block(batch[-1], proof)
                            # One batched pass over every signature in the
                            # range; the commits below hit the warmed cache.
                            verify_many([item for block in batch
                                         for item in signature_items(block.transactions)],
                                        peer.verify_meter)
                        for block in batch:
                            # Applying one block may let the engine apply
                            # decided blocks it held above the gap.
                            if block.height > peer.ledger.height:
                                peer.commit_block(block)
                                self._counters["sync.blocks_synced"].inc()
            effects = self.core.settled() if type(effects[-1]) is Apply else []
        self._future_buffer.set(len(self.core.future))

    def on_message(self, message: Message) -> bool:
        handler = _HANDLERS.get(message.kind)
        if handler is None:
            return False
        if _well_formed(message.kind, message.payload):
            getattr(self, handler)(message)
        else:
            self.peer.drop_malformed(message)
        return True
