"""Consensus-agnostic block synchronization and crash recovery.

Every :class:`~repro.chain.peer.Peer` owns a :class:`SyncManager`.  It is
the one place a peer learns that it has fallen behind — a crash window,
a partition, or plain message loss — and the one place missed blocks are
fetched, verified, and applied.  Both consensus engines rely on it: a
PBFT replica that missed a decision has no other way to learn the block,
and the PoA orderer's old ad-hoc anti-entropy probe is replaced
wholesale.

Lag detection has two inputs:

- **signed statements** — every ``announce_interval`` each live peer
  broadcasts ``(node_id, height, head_hash)`` signed with its Ed25519 key
  (:func:`statement_message`).  A statement claiming a height above our
  own is verified (and the announcer's public key is pinned first-use)
  before it may trigger a fetch, so an unsigned outsider cannot talk a
  peer into a sync spiral — at worst it can offer itself as a provider
  that never answers, which the retry machinery shrugs off.  A
  validator's verified statement is also kept — it is one signature of
  the certificate a fetched batch will need — and replaces whatever
  height its votes had let us guess for it;
- **height-ahead consensus traffic** — engines call
  :meth:`SyncManager.note_remote_height` when a validator's message
  implies a chain longer than ours (a pre-prepare, prepare, or commit
  for a height we cannot reach).  Under pipelined PBFT, consensus
  messages up to ``pipeline_depth`` heights ahead are *routine* — the
  engine only forwards hints for heights beyond its pipeline window, so
  the fetch machinery is not spun up for blocks that are not committed
  anywhere yet.

Fetching is a single in-flight ranged request at a time with a
per-request timeout, bounded per-provider retries, exponential backoff
with deterministic jitter, and failover to alternate providers.  A
provider that repeatedly times out has its claimed height forgotten
(it will re-announce when it is alive again), which also defuses
phantom-height claims from byzantine nodes.

**Verify before apply.**  A response carries blocks and nothing else.
The whole batch is checked for structure and hash-chain linkage onto the
local head — and, where a block carries its own authority (PoA's
expected leader), each block against the engine — and then held until
the engine accepts a proof for its *tip*
(:meth:`~repro.chain.consensus.base.ConsensusEngine.verify_synced_block`;
for PBFT statements for exactly that ``(height, hash)``: f+1 validators
that applied it, or 2f+1 that applied it or voted commit for it, the
hash chain covering every block below).  A statement has two forms,
told apart under the signature (:func:`statement_message`): *applied* —
the periodic announcement is one, for the head — and *voted*, which a
validator gives only for the block right above its applied head
(:meth:`~repro.chain.consensus.base.ConsensusEngine.attested_hash`).
The statements come from the announcements already verified — on an idle
chain everyone announces the same head and no further message is needed
— and otherwise from the validators themselves: ``sync-attest-request
{height}`` is answered with the signed statement, or not at all by a
validator that can vouch for nothing there yet.  The request stays in
flight, under the same timer, until the batch is applied: missing
statements are re-asked every ``backoff_base``, those already received
are kept across retries, and a provider whose tip enough validators
contradict (so that it can never reach the quorum) is dropped at once.
A tip still short at the first re-ask may be one that only its provider
holds: the held batch is then cut down to what f+1 validators are known
to hold — or to a single block, the only one a vote can cover — and the
rest is fetched again later.  A validator signs a given statement at
most once, however often it is asked.  The cost of signing on request:
a block that one replica decided alone (its own commit votes reached
nobody) can be fetched by the others only with 2f+1 validators up, the
voters among them having caught up to its parent; every block that f+1
validators hold is available with f down.  Blocks that PoA broadcasts
ahead of the gap are buffered in :attr:`SyncManager._future` and drained
in order once the gap closes.

All timing and jitter come from the shared simulator and a
``random.Random`` seeded from the node id, so runs remain a pure
function of their seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.transaction import signature_items
from repro.crypto.batch import verify_many
from repro.crypto.keys import verify_signature
from repro.obs.trace import Span
from repro.simnet.events import Event
from repro.simnet.network import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.peer import Peer

__all__ = [
    "SyncManager", "statement_message",
    "KIND_ANNOUNCE", "KIND_REQUEST", "KIND_RESPONSE", "KIND_ATTEST_REQUEST", "KIND_ATTEST",
]

KIND_ANNOUNCE = "sync-announce"
KIND_REQUEST = "sync-request"
KIND_RESPONSE = "sync-response"
KIND_ATTEST_REQUEST = "sync-attest-request"
KIND_ATTEST = "sync-attest"

_KINDS = frozenset({KIND_ANNOUNCE, KIND_REQUEST, KIND_RESPONSE, KIND_ATTEST_REQUEST, KIND_ATTEST})


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


#: A verified statement as kept: (height, block hash, signature hex,
#: voted for rather than applied).
_Statement = tuple[int, str, str, bool]


def statement_message(node_id: str, height: int, block_hash: str, voted: bool = False) -> bytes:
    """Canonical byte string of the statement a peer signs: *node_id*
    applied *block_hash* at *height* — its head when announced, any height
    of its ledger when asked — or, the *voted* form, has not applied it
    yet but voted commit for it on top of its applied head."""
    kind = "sync-voted" if voted else "sync-announce"
    return f"{kind}|{node_id}|{height}|{block_hash}".encode()


@dataclass
class _InFlight:
    """The single outstanding ranged fetch."""

    req_id: str
    provider: str
    start: int
    end: int
    timer: Event
    span: Span | None = None
    #: The fetched blocks, structure- and linkage-checked, held until
    #: their tip is certified (empty while the response is awaited).
    batch: list[Block] = field(default_factory=list)
    #: The pending re-ask for statements still missing.
    reask: Event | None = None


class SyncManager:
    """Detects lag, fetches verified block ranges, applies them in order."""

    #: At most this many blocks per sync-response (bounds message size).
    MAX_BATCH = 64
    #: Buffered future blocks beyond the gap (bounds memory under floods).
    FUTURE_WINDOW = 256
    #: Consecutive timeouts against one provider before failing over.
    PROVIDER_PATIENCE = 2
    #: Statements of its own a peer remembers having signed.
    SIGNED_MEMO = 16

    def __init__(
        self,
        peer: "Peer",
        announce_interval: float = 2.0,
        request_timeout: float = 1.5,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        backoff_cap: float = 8.0,
        jitter: float = 0.25,
    ):
        self.peer = peer
        self.announce_interval = announce_interval
        self.request_timeout = request_timeout
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        obs, node = peer.obs, peer.node_id
        self._announcements_sent = obs.counter("sync.announcements_sent", peer=node)
        self._announcements_verified = obs.counter("sync.announcements_verified", peer=node)
        self._announcements_rejected = obs.counter("sync.announcements_rejected", peer=node)
        self._requests_sent = obs.counter("sync.requests_sent", peer=node)
        self._attest_requests_sent = obs.counter("sync.attest_requests_sent", peer=node)
        self._statements_verified = obs.counter("sync.statements_verified", peer=node)
        self._responses_served = obs.counter("sync.responses_served", peer=node)
        self._retries = obs.counter("sync.retries", peer=node)
        self._timeouts = obs.counter("sync.timeouts", peer=node)
        self._provider_failovers = obs.counter("sync.provider_failovers", peer=node)
        self._stale_responses = obs.counter("sync.stale_responses", peer=node)
        self._blocks_synced = obs.counter("sync.blocks_synced", peer=node)
        self._invalid_blocks = obs.counter("sync.invalid_blocks", peer=node)
        self._buffered_future = obs.counter("sync.buffered_future", peer=node)
        #: Blocks the durable store acknowledged but could not recover after
        #: a crash (torn/corrupt records) — re-fetched through this manager.
        self._store_truncated_blocks = obs.counter("sync.store_truncated_blocks", peer=node)
        #: Blocks and sim seconds of every completed catch-up: the blocks
        #: here, the seconds (and their count) in ``phase.sync_fetch``.
        self._lag_blocks = obs.counter("sync.lag_blocks", peer=node)
        self._catchup = obs.histogram("phase.sync_fetch", peer=node)
        #: The largest lag a catch-up started from (a high-water mark).
        self._max_lag_blocks = obs.gauge("sync.max_lag_blocks", peer=node)
        self._future_buffer = obs.gauge("sync.future_buffer", peer=node)
        self.rng = random.Random(f"sync:{peer.node_id}")
        self.stopped = False
        #: node id -> highest height it has credibly claimed to hold.
        self.known_heights: dict[str, int] = {}
        #: node id -> pinned announcement public key (trust on first use).
        self._announced_keys: dict[str, bytes] = {}
        #: height -> offered block, buffered until the gap below closes.
        self._future: dict[int, Block] = {}
        self._inflight: _InFlight | None = None
        self._announce_event: Event | None = None
        self._retry_event: Event | None = None
        self._req_counter = 0
        self._round_failures = 0
        self._provider_timeouts: dict[str, int] = {}
        self._lag_since: float | None = None
        self._lag_from_height: int | None = None
        #: (height, hash, voted) -> own signature, oldest dropped first: an
        #: idle head is signed once, and a flood of attest requests costs
        #: lookups, not signatures.
        self._signed: dict[tuple[int, str, bool], bytes] = {}
        #: validator -> its latest verified statement above our head, as
        #: announced and as answered to an attest request.
        self._announced: dict[str, _Statement] = {}
        self._attested: dict[str, _Statement] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic announcement loop (idempotent)."""
        if self._announce_event is None and not self.stopped:
            self._schedule_announce()

    def stop(self) -> None:
        self.stopped = True
        if self._announce_event is not None:
            self._announce_event.cancel()
            self._announce_event = None
        self._cancel_inflight()

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
        self._cancel_inflight()
        self._future.clear()
        self.known_heights.clear()
        self._announced.clear()
        self._attested.clear()
        self._provider_timeouts.clear()
        self._round_failures = 0
        self._lag_since = None
        self._lag_from_height = None
        if report is not None:
            lost = len(getattr(report, "missing_acked", {}) or {})
            if lost:
                self._store_truncated_blocks.inc(lost)
                # Treat the truncation like detected lag from the moment
                # of restart: the catch-up duration metrics then cover
                # re-fetching what the disk lost.
                self._lag_since = self.peer.sim.now
                self._lag_from_height = self.peer.ledger.height
        # The announce loop keeps its schedule: a restarted process would
        # re-arm the same timer on boot.
        self.start()

    def _cancel_inflight(self) -> None:
        if self._inflight is not None:
            self._finish_inflight("cancelled")
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None

    # -- lag detection -----------------------------------------------------

    def _schedule_announce(self) -> None:
        self._announce_event = self.peer.sim.schedule(
            self.announce_interval, self._announce_tick,
            label=f"sync-announce:{self.peer.node_id}",
        )

    def _announce_tick(self) -> None:
        self._announce_event = None
        if self.stopped:
            return
        peer = self.peer
        if not peer.crashed:
            peer.broadcast(
                KIND_ANNOUNCE,
                self._statement(peer.ledger.height, peer.ledger.head.block_hash),
            )
            self._announcements_sent.inc()
        self._schedule_announce()

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
                statement_message(peer.node_id, height, block_hash, voted)
            )
        return {
            "node_id": peer.node_id,
            "height": height,
            "head_hash": block_hash,
            "voted": voted,
            "public_key": peer.keypair.public_key,
            "signature": signature,
        }

    def _verify_statement(self, message: Message, voted: bool = False) -> _Statement | None:
        """The statement in *message* if it is its sender's own, signed
        in the given form with the key pinned for that sender; otherwise
        ``None``."""
        payload = message.payload
        src = message.src
        height = payload.get("height")
        block_hash = payload.get("head_hash")
        public_key = payload.get("public_key")
        signature = payload.get("signature")
        if (
            payload.get("node_id") != src
            or not isinstance(height, int)
            or not isinstance(block_hash, str)
            or not isinstance(public_key, bytes)
            or not isinstance(signature, bytes)
            or self._announced_keys.get(src, public_key) != public_key
            or not verify_signature(
                public_key, statement_message(src, height, block_hash, voted), signature
            )
        ):
            return None
        self._announced_keys.setdefault(src, public_key)
        return height, block_hash, signature.hex(), voted

    def _on_announce(self, message: Message) -> None:
        payload = message.payload
        src = message.src
        height = payload.get("height")
        if (
            isinstance(height, int)
            and payload.get("node_id") == src
            and height <= self.peer.ledger.height
        ):
            # Nothing to fetch from this node; remember it only so the
            # provider chooser can skip it.  No signature check needed —
            # a lie here can never trigger a fetch.
            self.known_heights[src] = height
            return
        statement = self._verify_statement(message)
        if statement is None:
            self._announcements_rejected.inc()
            return
        self._announcements_verified.inc()
        if src in self.peer.engine.validators:
            self._announced[src] = statement
            self._statements_verified.inc()
        # Its own word replaces whatever its votes let us guess.
        self.known_heights[src] = height
        self.maybe_sync()
        self._complete_batch()

    # -- statements on request ---------------------------------------------

    def _on_attest_request(self, message: Message) -> None:
        """Vouch for the block we applied at the asked height, or voted
        commit for on top of our head; say nothing while we can do
        neither (whoever needs the answer asks again)."""
        height = message.payload.get("height")
        block_hash = self.peer.engine.attested_hash(height) if isinstance(height, int) else None
        if block_hash is not None:
            self.peer.send(message.src, KIND_ATTEST, self._statement(height, block_hash))

    def _on_attest(self, message: Message) -> None:
        """A validator's answer: kept if it is genuine, whether it is for
        the held tip, against it, or for a retry to find."""
        src = message.src
        if src not in self.peer.engine.validators:
            self._reject_statement("non-validator")
            return
        statement = self._verify_statement(message, message.payload.get("voted") is True)
        if statement is None:
            self._reject_statement("bad-signature")
            return
        height, block_hash = statement[:2]
        if height <= self.peer.ledger.height:
            return  # answered a question we no longer have
        self._attested[src] = statement
        held = self._inflight.batch if self._inflight is not None else ()
        if held and height == held[-1].height and block_hash != held[-1].block_hash:
            self._reject_statement("wrong-hash")
        else:
            self._statements_verified.inc()
        self._complete_batch()

    def _reject_statement(self, reason: str) -> None:
        self.peer.obs.counter(
            "sync.statements_rejected", peer=self.peer.node_id, reason=reason
        ).inc()

    def note_remote_height(self, src: str, height: int) -> None:
        """A node credibly holds chain up to *height*; sync if we lag."""
        if src == self.peer.node_id:
            return
        if height > self.known_heights.get(src, -1):
            self.known_heights[src] = height
        self.maybe_sync()

    def is_lagging(self) -> bool:
        """Does any known node hold a longer chain than ours?"""
        return self._sync_target() > self.peer.ledger.height

    def _sync_target(self) -> int:
        target = max(self.known_heights.values(), default=0)
        if self._future:
            target = max(target, max(self._future))
        return target

    # -- block intake ------------------------------------------------------

    def offer_block(self, block: Block, src: str) -> None:
        """A block that carries its own authority (a PoA leader's
        broadcast) arrived from *src*, possibly ahead.

        Next-in-line blocks are verified and applied immediately; blocks
        beyond the gap are buffered and a ranged fetch is kicked off for
        the missing prefix.
        """
        height = block.height
        if height <= self.peer.ledger.height:
            return
        if height > self.known_heights.get(src, -1):
            self.known_heights[src] = height
        if height == self.peer.ledger.height + 1:
            if self._verify_and_apply(block):
                self._drain_future()
            self._check_caught_up()
            return
        if len(self._future) < self.FUTURE_WINDOW or height < max(self._future):
            if len(self._future) >= self.FUTURE_WINDOW:
                del self._future[max(self._future)]
            if height not in self._future:
                self._buffered_future.inc()
            self._future[height] = block
            self._future_buffer.set(len(self._future))
        self.maybe_sync()

    @staticmethod
    def _extends(block: Block, parent: Block) -> bool:
        """Is *block* internally consistent and the next link after
        *parent*?  (It came from outside: anything may be wrong with it.)"""
        try:
            block.verify_structure()
        except Exception:
            return False
        return (block.height, block.prev_hash) == (parent.height + 1, parent.block_hash)

    def _verify_and_apply(self, block: Block) -> bool:
        peer = self.peer
        if not (
            self._extends(block, peer.ledger.head)
            and peer.engine.verify_synced_block(block, None)
        ):
            self._invalid_blocks.inc()
            return False
        peer.commit_block(block)
        self._blocks_synced.inc()
        return True

    def _drain_future(self) -> None:
        peer = self.peer
        while peer.ledger.height + 1 in self._future:
            if not self._verify_and_apply(self._future.pop(peer.ledger.height + 1)):
                break
        for height in [h for h in self._future if h <= peer.ledger.height]:
            del self._future[height]
        self._future_buffer.set(len(self._future))

    # -- fetch machinery ---------------------------------------------------

    def maybe_sync(self) -> None:
        """Start (or continue) a ranged fetch if we are behind."""
        if self.stopped or self.peer.crashed or self._inflight is not None:
            return
        if self._retry_event is not None:
            return  # a backoff wait is in progress; don't defeat it
        target = self._sync_target()
        height = self.peer.ledger.height
        if target <= height:
            self._check_caught_up()
            return
        if self._lag_since is None:
            self._lag_since = self.peer.sim.now
            self._lag_from_height = height
            self._max_lag_blocks.set(max(self._max_lag_blocks.value, target - height))
        provider = self._choose_provider(height)
        if provider is None:
            return
        self._send_request(provider, height + 1, min(target, height + self.MAX_BATCH))

    def _choose_provider(self, height: int) -> str | None:
        """Deterministically pick the live-looking node with the most chain."""
        candidates = [
            (claimed, node)
            for node, claimed in self.known_heights.items()
            if claimed > height
        ]
        if not candidates:
            return None
        best_height = max(claimed for claimed, _ in candidates)
        best = sorted(node for claimed, node in candidates if claimed == best_height)
        # Rotate among equally-tall providers as failures accumulate so a
        # silent best provider does not absorb every retry.
        return best[self._round_failures % len(best)]

    def _send_request(self, provider: str, start: int, end: int) -> None:
        self._req_counter += 1
        req_id = f"{self.peer.node_id}#{self._req_counter}"
        timer = self.peer.sim.schedule(
            self.request_timeout,
            lambda: self._on_timeout(req_id),
            label=f"sync-timeout:{self.peer.node_id}",
        )
        span = self.peer.tracer.start(
            "sync.fetch", peer=self.peer.node_id, provider=provider,
            start=start, end=end, req_id=req_id,
        )
        self._inflight = _InFlight(
            req_id=req_id, provider=provider, start=start, end=end, timer=timer, span=span
        )
        self._requests_sent.inc()
        if self._round_failures:
            self._retries.inc()
        self.peer.send(provider, KIND_REQUEST, {"req_id": req_id, "start": start, "end": end})

    def _finish_inflight(self, outcome: str, **attrs: Any) -> _InFlight:
        inflight = self._inflight
        assert inflight is not None
        self._inflight = None
        inflight.timer.cancel()
        if inflight.reask is not None:
            inflight.reask.cancel()
        if inflight.span is not None:
            self.peer.tracer.finish(inflight.span, outcome=outcome, **attrs)
        return inflight

    def _on_timeout(self, req_id: str) -> None:
        if self._inflight is None or self._inflight.req_id != req_id:
            return
        provider = self._finish_inflight("timeout").provider
        if self.stopped or self.peer.crashed:
            return
        self._timeouts.inc()
        self._round_failures += 1
        strikes = self._provider_timeouts.get(provider, 0) + 1
        self._provider_timeouts[provider] = strikes
        if strikes >= self.PROVIDER_PATIENCE:
            # Forget this provider's claim; it must re-announce to be
            # chosen again.  This is the failover path, and it also
            # un-wedges us from phantom heights a byzantine node claimed.
            self.known_heights.pop(provider, None)
            self._provider_timeouts.pop(provider, None)
            self._provider_failovers.inc()
        delay = min(
            self.backoff_base * self.backoff_factor ** min(self._round_failures - 1, 6),
            self.backoff_cap,
        )
        delay *= 1.0 + self.jitter * self.rng.random()
        self._retry_event = self.peer.sim.schedule(
            delay, self._retry_fire, label=f"sync-retry:{self.peer.node_id}"
        )

    def _retry_fire(self) -> None:
        self._retry_event = None
        self.maybe_sync()

    def _on_request(self, message: Message) -> None:
        """Serve a ranged fetch from our committed chain."""
        payload = message.payload
        peer = self.peer
        start = max(1, payload["start"])
        end = min(payload["end"], peer.ledger.height, start + self.MAX_BATCH - 1)
        self._responses_served.inc()
        peer.send(
            message.src,
            KIND_RESPONSE,
            {
                "req_id": payload["req_id"],
                "height": peer.ledger.height,
                "blocks": [peer.ledger.block(h) for h in range(start, end + 1)],
            },
        )

    def _on_response(self, message: Message) -> None:
        inflight = self._inflight
        payload = message.payload
        if inflight is None or inflight.req_id != payload.get("req_id") or inflight.batch:
            self._stale_responses.inc()
            return
        provider = message.src
        self._provider_timeouts.pop(provider, None)
        reported = payload.get("height")
        if isinstance(reported, int):
            # The provider's actual height replaces whatever it (or a
            # height-ahead message) previously claimed.
            self.known_heights[provider] = reported
        head = self.peer.ledger.head
        batch = [
            block for block in payload.get("blocks", ())
            if isinstance(block, Block) and block.height > head.height
        ]
        if not batch:
            self._finish_inflight("response", n_blocks=0)
            self._round_failures = 0
            self._drain_future()
            self.maybe_sync()
            return
        engine = self.peer.engine
        for block in batch:
            # Where a block carries its own authority (no quorum to ask),
            # a proof for the tip covers nothing below it: check each.
            if not self._extends(block, head) or not (
                engine.quorum or engine.verify_synced_block(block, None)
            ):
                self._reject_batch()
                return
            head = block
        inflight.batch = batch
        self._complete_batch()
        if self._inflight is inflight:
            self._ask_statements()

    def _tip_statements(self, tip: Block) -> tuple[dict[str, Any], set[str]]:
        """The proof *tip* has so far — who vouches for it, and who of
        them has only voted for it (we ourselves, if we did) — and which
        validators vouch for another block at its height."""
        kept: dict[str, tuple[str, bool]] = {}
        contradicting: set[str] = set()
        # An announcement says "applied": it replaces an earlier "voted".
        for statements in (self._attested, self._announced):
            for node, (height, block_hash, signature, voted) in statements.items():
                if height != tip.height:
                    continue
                if block_hash == tip.block_hash:
                    kept[node] = (signature, voted)
                else:
                    contradicting.add(node)
        peer = self.peer
        if (
            peer.node_id in peer.engine.validators
            and peer.engine.attested_hash(tip.height) == tip.block_hash
        ):
            own = self._statement(tip.height, tip.block_hash)
            kept[peer.node_id] = (own["signature"].hex(), own["voted"])
        proof = {
            "signers": sorted(kept),
            "signatures": {node: signature for node, (signature, _) in kept.items()},
            "voted": sorted(node for node, (_, voted) in kept.items() if voted),
        }
        return proof, contradicting

    def _complete_batch(self) -> None:
        """Apply the held batch if its tip is certified by now; drop its
        provider if it never can be."""
        inflight = self._inflight
        if inflight is None or not inflight.batch:
            return
        peer = self.peer
        engine = peer.engine
        # Consensus may have moved the head while the batch was held.
        batch = inflight.batch = [b for b in inflight.batch if b.height > peer.ledger.height]
        if not batch:
            self._finish_inflight("overtaken")
            self.maybe_sync()
            return
        tip = batch[-1]
        proof, contradicting = self._tip_statements(tip)
        linked = batch[0].prev_hash == peer.ledger.head.block_hash
        if not (linked and engine.verify_synced_block(tip, proof)):
            # No statement can help a batch that fell off the chain, a
            # tip the engine asks none for, or one that too many
            # validators contradict for it ever to reach the quorum.
            if (
                not linked
                or not engine.quorum
                or len(engine.validators) - len(contradicting) < engine.quorum
            ):
                self._reject_batch()
            return
        self._finish_inflight("applied", n_blocks=len(batch))
        self._round_failures = 0
        engine.on_synced_block(tip, proof)
        # One batched pass over every signature in the fetched range; the
        # per-block commit path below hits the warmed cache.
        verify_many(
            [item for block in batch for item in signature_items(block.transactions)],
            peer.verify_meter,
        )
        for block in batch:
            # Applying one block may let the engine drain decided blocks
            # it held above the gap; those heights are then done.
            if block.height > peer.ledger.height:
                peer.commit_block(block)
                self._blocks_synced.inc()
        for statements in (self._announced, self._attested):
            for node in [n for n, st in statements.items() if st[0] <= peer.ledger.height]:
                del statements[node]
        self._drain_future()
        self.maybe_sync()

    def _reject_batch(self) -> None:
        """Bad, gapped or refuted response: nothing of it is applied, and
        the provider's claim is dropped so the next round fails over to
        someone else."""
        provider = self._finish_inflight("rejected").provider
        self._invalid_blocks.inc()
        self.known_heights.pop(provider, None)
        self._provider_failovers.inc()
        self._drain_future()
        self.maybe_sync()

    def _ask_statements(self) -> None:
        """Ask every validator whose word on the held tip is missing;
        again every ``backoff_base`` until the batch is settled — from
        the second time on, for a tip that can be vouched for."""
        inflight = self._inflight
        if inflight is None or not inflight.batch:
            return
        peer = self.peer
        validators = peer.engine.validators
        if inflight.reask is not None:
            # Still short: keep what f+1 validators are known to hold, and
            # so can call applied.  Above that only votes can certify a
            # tip, and a vote counts only right above the voter's head —
            # one block, then.
            held = sorted(self.known_heights.get(v, 0) for v in validators if v != peer.node_id)
            keep = max(held[-1 - peer.engine.quorum // 2], peer.ledger.height + 1)
            inflight.batch = [block for block in inflight.batch if block.height <= keep]
            self._complete_batch()
            if self._inflight is not inflight:
                return
        tip = inflight.batch[-1]
        proof, contradicting = self._tip_statements(tip)
        heard = {peer.node_id, *proof["signers"], *contradicting}
        for validator in validators:
            if validator not in heard:
                peer.send(validator, KIND_ATTEST_REQUEST, {"height": tip.height})
                self._attest_requests_sent.inc()
        inflight.reask = peer.sim.schedule(
            self.backoff_base, self._ask_statements, label=f"sync-attest:{peer.node_id}"
        )

    def _check_caught_up(self) -> None:
        if self._lag_since is None:
            return
        if self._sync_target() > self.peer.ledger.height or self._future:
            return
        self._lag_blocks.inc(self.peer.ledger.height - (self._lag_from_height or 0))
        self._catchup.observe(self.peer.sim.now - self._lag_since)
        self._lag_since = None
        self._lag_from_height = None

    # -- dispatch ----------------------------------------------------------

    def on_message(self, message: Message) -> bool:
        if message.kind in _KINDS and not _well_formed(message.kind, message.payload):
            self.peer.drop_malformed(message)
            return True
        if message.kind == KIND_ANNOUNCE:
            self._on_announce(message)
        elif message.kind == KIND_REQUEST:
            self._on_request(message)
        elif message.kind == KIND_RESPONSE:
            self._on_response(message)
        elif message.kind == KIND_ATTEST_REQUEST:
            self._on_attest_request(message)
        elif message.kind == KIND_ATTEST:
            self._on_attest(message)
        else:
            return False
        return True
