"""Round-robin proof-of-authority ordering (Fabric-style orderer).

The leader for height *h* is ``validators[h % n]``.  The leader batches
its mempool into a block every ``block_interval`` and broadcasts it;
followers accept a block iff it comes from the expected leader and
extends their chain.  There is no voting — authority is the trust model,
exactly like a Fabric ordering service — which makes this the throughput
upper bound PBFT is compared against in E9.

Crash behaviour: if the scheduled leader is crashed, that height simply
stalls until rotation reaches a live leader (followers accept any
height-h block from the height-h leader, so a recovered leader can fill
the gap).  A production orderer would failover faster; for experiments
the stall *is* the observable cost of leader failure.

Catch-up is delegated to the peer's
:class:`~repro.chain.sync.SyncManager`: height-ahead blocks are buffered
there and the gap is fetched with retries and provider failover.  This
replaces the orderer's old ad-hoc anti-entropy probe, which only fired
while the mempool was non-empty (a behind peer with no pending work
stalled forever) and never retried a probe lost to drops or a crashed
provider.  A fetched block is applied only if its proposer is the
expected leader for its height (:meth:`RoundRobinOrderer.
verify_synced_block`).
"""

from __future__ import annotations

from typing import Any

from repro.chain.block import Block
from repro.chain.consensus.base import ConsensusEngine
from repro.simnet.network import Message

__all__ = ["RoundRobinOrderer"]

_KIND_BLOCK = "poa-block"


class RoundRobinOrderer(ConsensusEngine):
    """Rotating single-leader block production."""

    def __init__(
        self,
        validators: list[str],
        block_interval: float = 1.0,
        max_block_txs: int = 500,
    ):
        super().__init__()
        if not validators:
            raise ValueError("need at least one validator")
        self.validators = list(validators)
        self.block_interval = block_interval
        self.max_block_txs = max_block_txs
        self._tick_scheduled = False
        self._tick_event = None

    def leader_for(self, height: int) -> str:
        return self.validators[height % len(self.validators)]

    def start(self) -> None:
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        if self.stopped or self._tick_scheduled:
            return
        self._tick_scheduled = True
        assert self.peer is not None
        self._tick_event = self.peer.sim.schedule(
            self.block_interval, self._tick, label=f"poa-tick:{self.peer.node_id}"
        )

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self.stopped:
            return
        peer = self.peer
        assert peer is not None
        next_height = peer.ledger.height + 1
        # A leader that knows it is behind must not propose: its stale
        # block would be rejected everywhere but committed locally — a
        # self-inflicted fork.  (A leader that is behind *unknowingly*
        # still has the pre-announcement race; the sync announcements
        # shrink that window to at most one announce interval.)
        if (
            self.leader_for(next_height) == peer.node_id
            and not peer.crashed
            and not peer.sync.is_lagging()
        ):
            # Rotation reached this validator: its turn to order a block.
            peer.obs.counter("poa.leader_turns", peer=peer.node_id).inc()
            self._propose(next_height)
        self._schedule_tick()

    def _propose(self, height: int) -> None:
        peer = self.peer
        assert peer is not None
        batch = peer.mempool.take(self.max_block_txs)
        if not batch:
            return
        self._observe_order_wait(batch)
        peer.obs.counter("poa.blocks_proposed", peer=peer.node_id).inc()
        block = Block.build(
            height=height,
            prev_hash=peer.ledger.head.block_hash,
            timestamp=peer.sim.now,
            proposer=peer.node_id,
            transactions=batch,
        )
        peer.broadcast(_KIND_BLOCK, block)
        peer.commit_block(block)  # leader commits its own block immediately

    def verify_synced_block(self, block: Block, proof: Any) -> bool:
        """Authority is the proof: the proposer must be the rotation's
        expected leader for that height."""
        return block.proposer == self.leader_for(block.height)

    def on_restart(self) -> None:
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self._tick_scheduled = False
        self.start()

    def on_message(self, message: Message) -> bool:
        peer = self.peer
        assert peer is not None
        if message.kind != _KIND_BLOCK:
            return False
        # The SyncManager owns the apply path: it enforces the leader
        # check (via verify_synced_block), buffers height-ahead blocks,
        # and fetches any gap from the sender or another live validator.
        peer.sync.offer_block(message.payload, src=message.src)
        return True
