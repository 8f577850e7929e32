"""A validating peer: mempool + ledger + world state + contracts + consensus.

The peer handles *units* — a transaction on its own or the members of
a group, in order — at every station: :meth:`Peer.endorse` simulates and
signs one, :meth:`Peer.submit` admits one as one mempool entry and
gossips it as one message, and at commit time Fabric's *validate* phase
runs through :mod:`repro.chain.commit`: every unit in a decided block is
checked for (1) client signatures, (2) endorsement policy, (3) MVCC
read-set freshness; only then are its write sets applied.  All peers run
the same deterministic checks over the same block sequence, so their
world states stay identical — asserted by
``BlockchainNetwork.assert_convergence`` in tests.

Beyond consensus, each peer owns a :class:`~repro.chain.sync.SyncManager`
that detects when the peer has fallen behind the network head and
fetches, verifies, and applies the missing blocks — the recovery path
for crash windows, partitions, and message loss.  :meth:`Peer.restart`
models a real process restart: volatile state (mempool, open consensus
rounds, timers) is wiped and ledger and state are rebuilt from what the
storage backend kept.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from repro.chain import commit
from repro.chain.consensus.base import ConsensusEngine
from repro.chain.consensus.sharded import ShardedExecutor
from repro.chain.contracts import ContractRegistry, EndorsementPolicy
from repro.chain.contracts.endorsement import Endorsed
from repro.chain.block import Block
from repro.chain.index import ChainIndex
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.state import WorldState
from repro.chain.store import BlockStore, MemoryStore
from repro.chain.sync import SyncManager
from repro.chain.transaction import (
    Endorsement,
    Transaction,
    group_digest,
    group_run,
    rwset_digest,
    signature_items,
)
from repro.crypto.batch import batch_meter, verify_many
from repro.crypto.keys import KeyPair
from repro.errors import InvalidTransactionError
from repro.obs import MetricsRegistry, Tracer
from repro.simnet.network import Message, NetworkNode

__all__ = ["Admission", "Peer", "simulate_and_sign"]

_KIND_TX = "tx-gossip"  # carries one unit: a tuple of one transaction or of a whole group
_KIND_SYNC_PREFIX = "sync-"


def simulate_and_sign(
    registry: ContractRegistry,
    state: WorldState,
    keypair: KeyPair,
    node_id: str,
    txs: Sequence[Transaction],
) -> Endorsed:
    """What an endorser does with a unit: simulate its members in order
    over one speculative state and sign once — the unit's endorsed id and
    the digest of its members' rw-set digests.  A member's rw-set means
    nothing without the writes of the members before it, so there is
    nothing smaller to vouch for.  A member that aborts ends the
    simulation: its failed result comes back last and nothing is signed.
    """
    results = registry.execute_group(state, txs)
    if not results[-1].success:
        return None, results, []
    digests = [rwset_digest(result.read_set, result.write_set) for result in results]
    endorsement = Endorsement.create(
        keypair, node_id, txs[0].endorsed_id, group_digest(digests)
    )
    return endorsement, results, digests


class Admission(enum.Enum):
    """Outcome of submitting a transaction to one peer.

    The distinction matters for retry logic: a ``DUPLICATE`` or
    ``COMMITTED`` transaction is *safe* (pending or final somewhere — a
    gossip echo, not a failure), while ``FULL``, ``CRASHED``,
    ``INVALID`` and ``OVERSIZED`` mean this peer genuinely did not take
    it and another entry point should be tried.  The seed code conflated
    all of these into one ``False``, so a duplicate submission could walk
    every peer and then raise for a transaction that was happily pending.
    """

    ADMITTED = "admitted"    #: entered this peer's mempool just now
    DUPLICATE = "duplicate"  #: already pending in this peer's mempool
    COMMITTED = "committed"  #: already committed on this peer's chain
    FULL = "full"            #: mempool at capacity (back-pressure)
    INVALID = "invalid"      #: failed structural/signature validation
    OVERSIZED = "oversized"  #: a group with more members than a block holds
    CRASHED = "crashed"      #: peer is down; a real RPC would not connect

    @property
    def accepted(self) -> bool:
        """The transaction is pending or final — no retry needed."""
        return self in (Admission.ADMITTED, Admission.DUPLICATE, Admission.COMMITTED)


_REJECTION_METRICS = {
    "signature": "peer.signature_failures",
    "endorsement": "peer.endorsement_failures",
    "mvcc": "peer.mvcc_conflicts",
    "incomplete": "peer.group_incomplete",
}


class Peer(NetworkNode):
    """One blockchain node on the simulated network."""

    def __init__(
        self,
        node_id: str,
        keypair: KeyPair,
        registry: ContractRegistry,
        engine: ConsensusEngine,
        default_policy: EndorsementPolicy | None = None,
        sharded_executor: ShardedExecutor | None = None,
        byzantine: bool = False,
        obs: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        store: BlockStore | None = None,
    ):
        super().__init__(node_id)
        self.keypair = keypair
        self.registry = registry
        self.engine = engine
        #: Storage backend; :class:`~repro.chain.store.MemoryStore` keeps
        #: the seed behaviour, :class:`~repro.chain.store.DurableStore`
        #: write-ahead logs every commit and makes restart a *recovery*.
        self.store: BlockStore = store if store is not None else MemoryStore()
        self.ledger = Ledger()
        #: Explorer-grade secondary index, fed incrementally at commit and
        #: rebuilt from the recovered ledger on restart — explorer queries
        #: against this peer answer from materialized views, not scans.
        self.index = ChainIndex()
        self.state = WorldState()
        self.mempool = Mempool()
        self.policies: dict[str, EndorsementPolicy] = {}
        self.default_policy = default_policy or EndorsementPolicy(required=1)
        self.sharded_executor = sharded_executor
        self.byzantine = byzantine
        #: Shared (network-wide) metrics registry; private when the peer
        #: is constructed standalone, as unit tests do.
        self.obs = obs if obs is not None else MetricsRegistry()
        #: Lifecycle tracer; defaults to one on this peer's clock.  The
        #: sim clock is only reachable once the peer joins a network, so
        #: the fallback clock reads it lazily (0.0 before attachment).
        self.tracer = tracer if tracer is not None else Tracer(
            clock=lambda: self.network.sim.now if self.network is not None else 0.0,
            registry=self.obs,
        )
        self._txs_valid = self.obs.counter("peer.txs_committed_valid", peer=node_id)
        self._txs_invalid = self.obs.counter("peer.txs_committed_invalid", peer=node_id)
        self._blocks_committed = self.obs.counter("peer.blocks_committed", peer=node_id)
        self._restarts = self.obs.counter("peer.restarts", peer=node_id)
        self._groups_committed = self.obs.counter("chain.groups_committed", peer=node_id)
        #: Commit-time rejections by the check that failed
        #: (:attr:`repro.chain.commit.Verdict.failed_check`).
        self._rejections = {
            check: self.obs.counter(name, peer=node_id)
            for check, name in _REJECTION_METRICS.items()
        }
        self._gossip = self.obs.histogram("phase.gossip", peer=node_id)
        self._consensus_round = self.obs.histogram("phase.consensus_round", peer=node_id)
        self._commit_latency = self.obs.histogram("phase.commit_latency", peer=node_id)
        #: Block-commit sim times, kept as a bounded reservoir.
        self._commit_times = self.obs.histogram("peer.commit_time", peer=node_id)
        #: Told every batch of signatures this peer checks in one pass.
        self.verify_meter = batch_meter(self.obs, peer=node_id)
        self.store.attach(self.obs, node_id)
        self.sync = SyncManager(self)
        #: Called as ``listener(peer, block)`` after every committed
        #: block — the invariant auditor's hook point.
        self.commit_listeners: list[Callable[["Peer", Block], None]] = []
        #: Called as ``listener(peer, wiped_tx_ids)`` when a crash-restart
        #: wipes volatile state, so auditors can excuse the injected loss.
        self.restart_listeners: list[Callable[["Peer", set[str]], None]] = []
        engine.attach(self)

    @property
    def receipts(self):
        """Read-only ``tx id -> TxReceipt`` mapping over the ledger's
        record (:attr:`Ledger.receipts <repro.chain.ledger.Ledger.receipts>`);
        hot loops ask ``ledger.receipt(tx_id)`` / ``tx_id in ledger``."""
        return self.ledger.receipts

    @property
    def disk(self):
        """The store's simulated disk, if the backend has one — the hook
        :class:`~repro.simnet.failure.FailureSchedule` disk faults target
        (duck-typed: the simnet layer never imports chain classes)."""
        return getattr(self.store, "disk", None)

    # -- configuration --------------------------------------------------------

    def set_policy(self, contract: str, policy: EndorsementPolicy) -> None:
        self.policies[contract] = policy

    def policy_for(self, contract: str) -> EndorsementPolicy:
        return self.policies.get(contract, self.default_policy)

    # -- endorsement (executed on behalf of clients) ----------------------------

    def endorse(self, txs: Sequence[Transaction]) -> Endorsed | None:
        """Simulate the unit *txs* against current state and sign it once
        (:func:`simulate_and_sign`).

        ``None`` if this peer is crashed or not eligible under every
        member's policy.  An aborted simulation still comes back — failed
        result last, no signature — so clients can surface the contract
        error.
        """
        if self.crashed or not all(
            self.policy_for(tx.contract).eligible(self.node_id) for tx in txs
        ):
            return None
        return simulate_and_sign(self.registry, self.state, self.keypair, self.node_id, txs)

    # -- transaction admission ---------------------------------------------------

    def submit(self, tx: Transaction, *siblings: Transaction, gossip: bool = True) -> Admission:
        """Admit an endorsed unit — a transaction, or with its *siblings*
        the members of one group, in order — as one mempool entry (and
        gossip it as one message), or none of it.
        """
        if self.crashed:
            return Admission.CRASHED
        entry = (tx, *siblings)
        # Prewarm the verify cache with the client + endorsement
        # signatures in one batch; validate_structure and the later
        # commit-time endorsement checks then hit the cache.
        verify_many(signature_items(entry), self.verify_meter)
        try:
            for member in entry:
                member.validate_structure()
        except InvalidTransactionError:
            self._rejections["signature"].inc()
            return Admission.INVALID
        # A tagged transaction is admitted only as its whole group, an
        # untagged one only on its own.
        if group_run(entry, 0) != entry:
            return Admission.INVALID
        if len(entry) > self.engine.max_block_txs:
            return Admission.OVERSIZED
        if any(member.tx_id in self.ledger for member in entry):
            # Already committed here (a gossip echo arriving after
            # ``mempool.remove``).  Re-admitting would let the copy land
            # in a later block, fail MVCC, and clobber the original valid
            # receipt.
            return Admission.COMMITTED
        if any(member.tx_id in self.mempool for member in entry):
            return Admission.DUPLICATE
        if not self.mempool.add(*entry):
            return Admission.FULL
        if self.network is not None:
            # Submit/gossip phase: creation → admission into *this*
            # mempool.  ~0 at the entry peer (endorsement is synchronous),
            # one network hop at gossip recipients.
            self._gossip.observe(max(0.0, self.sim.now - tx.timestamp))
        self.engine.on_transaction_admitted()
        if gossip:
            self.broadcast(_KIND_TX, entry)
        return Admission.ADMITTED

    # -- commit path ----------------------------------------------------------------

    def commit_block(self, block: Block) -> None:
        """Validate and apply a decided block (the Fabric validate phase)."""
        span = self.tracer.start(
            "commit", peer=self.node_id, height=block.height, n_txs=len(block)
        )
        # Consensus + propagation cost for this peer: proposal timestamp
        # to local commit (0 for a PoA leader committing its own block).
        self._consensus_round.observe(max(0.0, self.sim.now - block.timestamp))
        # One batched pass over every signature in the block (client +
        # endorsements); the per-transaction checks then hit the warmed
        # cache, so verdicts — and the order failures are attributed in —
        # are those of checking one signature at a time.
        verify_many(signature_items(block.transactions), self.verify_meter)
        result = commit.commit_block(
            block, self.policy_for,
            ledger=self.ledger, state=self.state, index=self.index,
        )
        for verdict in result.verdicts:
            if verdict.failed_check is not None:
                self._rejections[verdict.failed_check].inc()
        for failed_check in result.group_outcomes:
            if failed_check is None:
                self._groups_committed.inc()
            else:
                self.obs.counter(
                    "chain.groups_aborted", peer=self.node_id, reason=failed_check
                ).inc()
        valid_txs = result.valid_txs
        self._txs_valid.inc(len(valid_txs))
        self._txs_invalid.inc(len(block) - len(valid_txs))
        for tx in valid_txs:
            self._commit_latency.observe(self.sim.now - tx.timestamp)
        # Write-ahead durability: the record (block + verdicts + error
        # strings + the proof that certified it, if it came in as a synced
        # tip) is logged and fsync'd-in-model before this commit is
        # acknowledged durable; recovery re-verifies a proof it finds
        # before trusting the record.  Sync records a tip's proof before
        # calling commit_block, so sync_proof is available here.
        self.store.on_commit(
            block,
            result.validity,
            proof=self.engine.sync_proof(block.height),
            errors=result.errors,
        )
        self.mempool.remove([tx.tx_id for tx in block.transactions])
        self._blocks_committed.inc()
        self._commit_times.observe(self.sim.now)
        self.store.maybe_snapshot(self.ledger, self.state)
        if self.sharded_executor is not None and valid_txs:
            self.sharded_executor.plan_block(valid_txs)
        for listener in self.commit_listeners:
            listener(self, block)
        self.tracer.finish(span, valid=len(valid_txs), invalid=len(block) - len(valid_txs))
        self.sync.on_block_applied(block)
        # After the listeners: a pipelined engine may apply buffered
        # decided blocks here, and each re-enters commit_block — the
        # auditor must have seen *this* block first.
        self.engine.on_block_applied(block)

    # -- crash recovery -----------------------------------------------------------

    def restart(self) -> set[str]:
        """Simulate a process restart: durable state survives, the rest dies.

        What "durable" means depends on the storage backend.  With the
        in-memory store (seed behaviour) the chain is axiomatically kept
        and the world state replayed from it under its recorded verdicts
        (:meth:`Ledger.replay_state <repro.chain.ledger.Ledger.replay_state>`).
        With a :class:`~repro.chain.store.DurableStore`, restart is
        *recovery*: the backend rebuilds ledger and state from its
        verified snapshot + log tail — and anything it had to give up
        (torn tail, corrupt snapshot) is reported, counted, and later
        re-fetched from the network by the sync manager.  The mempool,
        the engine's open rounds and timers, and in-flight fetches are
        wiped either way — exactly what a real crash loses.  Returns the
        wiped pending tx ids so fault injectors can report (and auditors
        can excuse) the loss.
        """
        wiped = {tx.tx_id for tx in self.mempool.snapshot()} | self.engine.pending_txs()
        wiped = {tx_id for tx_id in wiped if tx_id not in self.ledger}
        self.crashed = False
        self.mempool = Mempool()
        recovered = self.store.recover(engine=self.engine)
        report = None
        if recovered is None:
            self.state = self.ledger.replay_state()
        else:
            report = recovered.report
            self.ledger = recovered.ledger
            self.state = recovered.state
        # The in-memory index is volatile: rebuild it from whatever chain
        # survived (recovery may have truncated below the pre-crash tip).
        self.index.reindex(self.ledger)
        self.engine.on_restart()
        if recovered is not None:
            self._reseed_engine_proofs(recovered.proofs)
        self.sync.on_restart(report=report)
        self._restarts.inc()
        for listener in self.restart_listeners:
            listener(self, wiped)
        return wiped

    def _reseed_engine_proofs(self, proofs: dict[int, "object"]) -> None:
        """Hand the engine back the proofs recovery found (and verified)
        beside the blocks that survived."""
        for height, proof in sorted(proofs.items()):
            if proof is not None and height <= self.ledger.height:
                self.engine.on_synced_block(self.ledger.block(height), proof)

    # -- network ------------------------------------------------------------------------

    def drop_malformed(self, message: Message) -> None:
        """Count a message whose payload failed its kind's boundary check
        (a field missing or of the wrong type); nothing else happens to it."""
        self.obs.counter("peer.messages_malformed", peer=self.node_id, kind=message.kind).inc()

    def on_message(self, message: Message) -> None:
        if message.kind == _KIND_TX:
            entry = message.payload
            if isinstance(entry, (tuple, list)) and entry and all(
                isinstance(member, Transaction) for member in entry
            ):
                self.submit(*entry, gossip=False)
            else:
                self.drop_malformed(message)
            return
        if message.kind.startswith(_KIND_SYNC_PREFIX):
            self.sync.on_message(message)
            return
        self.engine.on_message(message)
