"""Consensus-agnostic block synchronization and crash recovery.

Every :class:`~repro.chain.peer.Peer` owns a :class:`SyncManager`.  It is
the one place a peer learns that it has fallen behind — a crash window,
a partition, or plain message loss — and the one place missed blocks are
fetched, verified, and applied.  Both consensus engines delegate to it:
PBFT hands over any committed block it cannot apply immediately, and the
PoA orderer's old ad-hoc anti-entropy probe is replaced wholesale.

Lag detection has two inputs:

- **signed height announcements** — every ``announce_interval`` each
  live peer broadcasts ``(node_id, height, head_hash)`` signed with its
  Ed25519 key.  Announcements claiming a height above our own are
  verified (and the announcer's public key is pinned first-use) before
  they may trigger a fetch, so an unsigned outsider cannot talk a peer
  into a sync spiral — at worst it can offer itself as a provider that
  never answers, which the retry machinery shrugs off;
- **height-ahead consensus traffic** — engines call
  :meth:`SyncManager.note_remote_height` when a validator's message
  implies a chain longer than ours (a pre-prepare, prepare, or commit
  for a height we cannot reach, or a committed-block broadcast beyond
  our head).  Under pipelined PBFT, consensus messages up to
  ``pipeline_depth`` heights ahead are *routine* — the engine only
  forwards hints for heights beyond its pipeline window, so the fetch
  machinery is not spun up for blocks that are not committed anywhere
  yet.

Fetching is a single in-flight ranged request at a time with a
per-request timeout, bounded per-provider retries, exponential backoff
with deterministic jitter, and failover to alternate providers.  A
provider that repeatedly times out has its claimed height forgotten
(it will re-announce when it is alive again), which also defuses
phantom-height claims from byzantine nodes.  Every fetched block is
verified before apply: structural integrity and hash-chain linkage
always, plus the engine's own proof check
(:meth:`~repro.chain.consensus.base.ConsensusEngine.verify_synced_block`
— a stored 2f+1 commit certificate for PBFT, the expected-leader check
for PoA).  Blocks that arrive from consensus ahead of the gap are
buffered in :attr:`SyncManager._future` and drained in order once the
gap closes.

All timing and jitter come from the shared simulator and a
``random.Random`` seeded from the node id, so runs remain a pure
function of their seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.transaction import signature_items
from repro.crypto.batch import verify_many
from repro.crypto.keys import verify_signature
from repro.obs import MetricsRegistry, ObsView, metric_attr
from repro.obs.trace import Span
from repro.simnet.events import Event
from repro.simnet.network import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.peer import Peer

__all__ = ["SyncManager", "SyncMetrics", "KIND_ANNOUNCE", "KIND_REQUEST", "KIND_RESPONSE"]

KIND_ANNOUNCE = "sync-announce"
KIND_REQUEST = "sync-request"
KIND_RESPONSE = "sync-response"


def _announce_message(node_id: str, height: int, head_hash: str) -> bytes:
    """Canonical byte string covered by an announcement signature."""
    return f"sync-announce|{node_id}|{height}|{head_hash}".encode()


class SyncMetrics(ObsView):
    """Counters the recovery benchmarks and chaos tests read.

    Attribute API unchanged from the seed dataclass; values live in the
    peer's shared :class:`~repro.obs.registry.MetricsRegistry` under a
    ``peer=<node_id>`` label (see :class:`repro.obs.views.ObsView`).
    """

    announcements_sent = metric_attr("sync.announcements_sent")
    announcements_verified = metric_attr("sync.announcements_verified")
    announcements_rejected = metric_attr("sync.announcements_rejected")
    requests_sent = metric_attr("sync.requests_sent")
    responses_served = metric_attr("sync.responses_served")
    retries = metric_attr("sync.retries")
    timeouts = metric_attr("sync.timeouts")
    provider_failovers = metric_attr("sync.provider_failovers")
    stale_responses = metric_attr("sync.stale_responses")
    blocks_synced = metric_attr("sync.blocks_synced")
    invalid_blocks = metric_attr("sync.invalid_blocks")
    buffered_future = metric_attr("sync.buffered_future")
    syncs_completed = metric_attr("sync.syncs_completed")
    lag_time_total = metric_attr("sync.lag_time_total")
    max_lag_blocks = metric_attr("sync.max_lag_blocks")
    #: Blocks the durable store acknowledged but could not recover after
    #: a crash (torn/corrupt records) — re-fetched through this manager.
    store_truncated_blocks = metric_attr("sync.store_truncated_blocks")

    def __init__(self, registry: MetricsRegistry | None = None, peer: str = ""):
        super().__init__(registry, peer=peer)
        #: (lag_blocks, seconds) per completed catch-up, for latency
        #: tables; the same durations also feed the ``phase.sync_fetch``
        #: histogram for the percentile report.
        self.sync_durations: list[tuple[int, float]] = []
        self._catchup = self.registry.histogram("phase.sync_fetch", **self.labels)

    def record_catchup(self, lag_blocks: int, duration: float) -> None:
        self.syncs_completed += 1
        self.lag_time_total += duration
        self.sync_durations.append((lag_blocks, duration))
        self._catchup.observe(duration)


@dataclass
class _InFlight:
    """The single outstanding ranged fetch."""

    req_id: str
    provider: str
    start: int
    end: int
    timer: Event
    span: Span | None = None


class SyncManager:
    """Detects lag, fetches verified block ranges, applies them in order."""

    #: At most this many blocks per sync-response (bounds message size).
    MAX_BATCH = 64
    #: Buffered future blocks beyond the gap (bounds memory under floods).
    FUTURE_WINDOW = 256
    #: Consecutive timeouts against one provider before failing over.
    PROVIDER_PATIENCE = 2

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
        self.metrics = SyncMetrics(registry=peer.obs, peer=peer.node_id)
        self.rng = random.Random(f"sync:{peer.node_id}")
        self.stopped = False
        #: node id -> highest height it has credibly claimed to hold.
        self.known_heights: dict[str, int] = {}
        #: node id -> pinned announcement public key (trust on first use).
        self._announced_keys: dict[str, bytes] = {}
        #: height -> (block, proof) buffered until the gap below closes.
        self._future: dict[int, tuple[Block, Any]] = {}
        self._inflight: _InFlight | None = None
        self._announce_event: Event | None = None
        self._retry_event: Event | None = None
        self._req_counter = 0
        self._round_failures = 0
        self._provider_timeouts: dict[str, int] = {}
        self._lag_since: float | None = None
        self._lag_from_height: int | None = None
        #: cache: (height, head_hash) -> signature, so steady-state
        #: announcements cost no repeated Ed25519 signing.
        self._signature_cache: tuple[tuple[int, str], bytes] | None = None

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
        self._provider_timeouts.clear()
        self._round_failures = 0
        self._lag_since = None
        self._lag_from_height = None
        if report is not None:
            lost = len(getattr(report, "missing_acked", {}) or {})
            if lost:
                self.metrics.store_truncated_blocks += lost
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
            self._inflight.timer.cancel()
            if self._inflight.span is not None:
                self.peer.tracer.finish(self._inflight.span, outcome="cancelled")
            self._inflight = None
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
            height = peer.ledger.height
            head_hash = peer.ledger.head.block_hash
            key = (height, head_hash)
            if self._signature_cache is None or self._signature_cache[0] != key:
                signature = peer.keypair.sign(
                    _announce_message(peer.node_id, height, head_hash)
                )
                self._signature_cache = (key, signature)
            peer.broadcast(
                KIND_ANNOUNCE,
                {
                    "node_id": peer.node_id,
                    "height": height,
                    "head_hash": head_hash,
                    "public_key": peer.keypair.public_key,
                    "signature": self._signature_cache[1],
                },
            )
            self.metrics.announcements_sent += 1
        self._schedule_announce()

    def _on_announce(self, message: Message) -> None:
        payload = message.payload
        src = message.src
        height = payload.get("height")
        if not isinstance(height, int) or payload.get("node_id") != src:
            self.metrics.announcements_rejected += 1
            return
        if height <= self.peer.ledger.height:
            # Nothing to fetch from this node; remember it only so the
            # provider chooser can skip it.  No signature check needed —
            # a lie here can never trigger a fetch.
            self.known_heights[src] = height
            return
        public_key = payload.get("public_key")
        pinned = self._announced_keys.get(src)
        if pinned is not None and pinned != public_key:
            self.metrics.announcements_rejected += 1
            return
        if not isinstance(public_key, bytes) or not verify_signature(
            public_key,
            _announce_message(src, height, payload.get("head_hash", "")),
            payload.get("signature", b""),
        ):
            self.metrics.announcements_rejected += 1
            return
        self._announced_keys.setdefault(src, public_key)
        self.metrics.announcements_verified += 1
        self.note_remote_height(src, height)

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

    def offer_block(self, block: Block, proof: Any, src: str) -> None:
        """A consensus-committed block arrived from *src* (possibly ahead).

        Next-in-line blocks are verified and applied immediately; blocks
        beyond the gap are buffered and a ranged fetch is kicked off for
        the missing prefix.
        """
        height = block.height
        if height <= self.peer.ledger.height:
            return
        if src != self.peer.node_id and height > self.known_heights.get(src, -1):
            # Never count ourselves as a provider: a self-offer (possible
            # under pipelining, where decided blocks sit ahead of the
            # applied head) must not make is_lagging() true against our
            # own claim and stall the proposer.
            self.known_heights[src] = height
        if height == self.peer.ledger.height + 1:
            if self._verify_and_apply(block, proof):
                self._drain_future()
            self._check_caught_up()
            return
        if len(self._future) < self.FUTURE_WINDOW or height < max(self._future):
            if len(self._future) >= self.FUTURE_WINDOW:
                del self._future[max(self._future)]
            if height not in self._future:
                self.metrics.buffered_future += 1
            self._future[height] = (block, proof)
            self._observe_future()
        self.maybe_sync()

    def _verify_and_apply(self, block: Block, proof: Any) -> bool:
        peer = self.peer
        try:
            block.verify_structure()
        except Exception:
            self.metrics.invalid_blocks += 1
            return False
        if block.prev_hash != peer.ledger.head.block_hash:
            self.metrics.invalid_blocks += 1
            return False
        if not peer.engine.verify_synced_block(block, proof):
            self.metrics.invalid_blocks += 1
            return False
        peer.engine.on_synced_block(block, proof)
        peer.commit_block(block)
        self.metrics.blocks_synced += 1
        return True

    def _drain_future(self) -> None:
        peer = self.peer
        while peer.ledger.height + 1 in self._future:
            block, proof = self._future.pop(peer.ledger.height + 1)
            if not self._verify_and_apply(block, proof):
                break
        for height in [h for h in self._future if h <= peer.ledger.height]:
            del self._future[height]
        self._observe_future()

    def _observe_future(self) -> None:
        self.peer.obs.gauge("sync.future_buffer", peer=self.peer.node_id).set(
            len(self._future)
        )

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
            self.metrics.max_lag_blocks = max(
                self.metrics.max_lag_blocks, target - height
            )
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
        self.metrics.requests_sent += 1
        if self._round_failures:
            self.metrics.retries += 1
        self.peer.send(provider, KIND_REQUEST, {"req_id": req_id, "start": start, "end": end})

    def _on_timeout(self, req_id: str) -> None:
        inflight = self._inflight
        if inflight is None or inflight.req_id != req_id:
            return
        self._inflight = None
        if inflight.span is not None:
            self.peer.tracer.finish(inflight.span, outcome="timeout")
        if self.stopped or self.peer.crashed:
            return
        self.metrics.timeouts += 1
        self._round_failures += 1
        provider = inflight.provider
        strikes = self._provider_timeouts.get(provider, 0) + 1
        self._provider_timeouts[provider] = strikes
        if strikes >= self.PROVIDER_PATIENCE:
            # Forget this provider's claim; it must re-announce to be
            # chosen again.  This is the failover path, and it also
            # un-wedges us from phantom heights a byzantine node claimed.
            self.known_heights.pop(provider, None)
            self._provider_timeouts.pop(provider, None)
            self.metrics.provider_failovers += 1
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
        start = max(1, int(payload["start"]))
        end = min(int(payload["end"]), peer.ledger.height, start + self.MAX_BATCH - 1)
        blocks = [
            {"block": peer.ledger.block(h), "proof": peer.engine.sync_proof(h)}
            for h in range(start, end + 1)
        ]
        self.metrics.responses_served += 1
        peer.send(
            message.src,
            KIND_RESPONSE,
            {"req_id": payload["req_id"], "height": peer.ledger.height, "blocks": blocks},
        )

    def _on_response(self, message: Message) -> None:
        inflight = self._inflight
        payload = message.payload
        if inflight is None or inflight.req_id != payload.get("req_id"):
            self.metrics.stale_responses += 1
            return
        inflight.timer.cancel()
        self._inflight = None
        if inflight.span is not None:
            self.peer.tracer.finish(
                inflight.span, outcome="response",
                n_blocks=len(payload.get("blocks", ())),
            )
        provider = message.src
        self._provider_timeouts.pop(provider, None)
        self._round_failures = 0
        reported = payload.get("height")
        if isinstance(reported, int):
            # The provider's actual height replaces whatever it (or a
            # height-ahead message) previously claimed.
            self.known_heights[provider] = reported
        pending = [
            entry["block"]
            for entry in payload.get("blocks", ())
            if isinstance(entry, dict)
            and isinstance(entry.get("block"), Block)
            and entry["block"].height > self.peer.ledger.height
        ]
        # One batched pass over every signature in the fetched range; the
        # per-block verify/commit path below hits the warmed cache.
        verify_many(
            [item for block in pending for item in signature_items(block.transactions)],
            registry=self.peer.obs,
            peer=self.peer.node_id,
        )
        clean = True
        for entry in payload.get("blocks", ()):
            block = entry["block"]
            if block.height <= self.peer.ledger.height:
                continue
            if block.height != self.peer.ledger.height + 1:
                clean = False
                break
            if not self._verify_and_apply(block, entry.get("proof")):
                clean = False
                break
        if not clean:
            # Bad or gapped response: drop the provider's claim so the
            # next round fails over to someone else.
            self.known_heights.pop(provider, None)
            self.metrics.provider_failovers += 1
        self._drain_future()
        self.maybe_sync()

    def _check_caught_up(self) -> None:
        if self._lag_since is None:
            return
        if self._sync_target() > self.peer.ledger.height or self._future:
            return
        duration = self.peer.sim.now - self._lag_since
        lag_blocks = self.peer.ledger.height - (self._lag_from_height or 0)
        self.metrics.record_catchup(lag_blocks, duration)
        self._lag_since = None
        self._lag_from_height = None

    # -- dispatch ----------------------------------------------------------

    def on_message(self, message: Message) -> bool:
        if message.kind == KIND_ANNOUNCE:
            self._on_announce(message)
        elif message.kind == KIND_REQUEST:
            self._on_request(message)
        elif message.kind == KIND_RESPONSE:
            self._on_response(message)
        else:
            return False
        return True
