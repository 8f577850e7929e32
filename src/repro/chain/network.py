"""Blockchain network harness and client API.

:class:`BlockchainNetwork` wires N peers onto a simulated network with a
chosen consensus engine; :class:`ChainClient` is the application-facing
handle that signs, endorses, and submits transactions and waits for
receipts by advancing simulated time.

What travels the write path is a *unit*: one transaction, or the
members of a group.  ``endorse_group(steps)`` signs and endorses one
(``endorse_transaction`` is its one-step form) and ``submit(tx,
*siblings)`` hands it to a peer; there is no second path for a
transaction on its own.

Endorsement is modelled as a synchronous RPC to endorsing peers (the
client calls ``peer.endorse`` directly).  This matches Fabric, where
proposal simulation happens on a request/response channel outside
consensus; the ordering and commit path — the part whose latency the
paper's scalability question is about — runs fully through the
simulated network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Literal, Sequence

from repro.chain.audit import fork_violations, state_violations
from repro.chain.consensus import ConsensusEngine, PBFTEngine, RoundRobinOrderer
from repro.chain.contracts import Contract, ContractRegistry, EndorsementPolicy  # noqa: F401 - re-exported
from repro.chain.contracts.endorsement import gather_endorsements
from repro.chain.peer import Admission, Peer
from repro.chain.store import DurableStore, SQLiteStore
from repro.chain.transaction import Transaction, TxReceipt, create_group
from repro.crypto.keys import KeyPair
from repro.errors import ChainError, ContractError
from repro.obs import MetricsRegistry, Tracer
from repro.simnet import LatencyModel, Network, SimDisk, Simulator

__all__ = ["BlockchainNetwork", "ChainClient"]

ConsensusKind = Literal["poa", "pbft"]
StorageKind = Literal["durable", "sqlite"]
_STORES: dict[str, type[DurableStore]] = {"durable": DurableStore, "sqlite": SQLiteStore}


@dataclass
class ChainClient:
    """A signing identity bound to a :class:`BlockchainNetwork`."""

    keypair: KeyPair
    network: "BlockchainNetwork"
    _nonce: int = 0

    @property
    def address(self) -> str:
        return self.keypair.address

    def invoke(
        self,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
        wait: bool = True,
    ) -> TxReceipt | str:
        """Endorse + submit an invocation.

        With ``wait=True`` (default) the simulator is advanced until the
        transaction commits and its receipt is returned; otherwise the
        tx id is returned immediately for batch submission.
        """
        tx = self.network.endorse_transaction(self, contract, method, args or {})
        self.network.submit(tx)
        if not wait:
            return tx.tx_id
        return self.network.wait_for_receipt(tx.tx_id)

    def query(self, contract: str, method: str, args: dict[str, Any] | None = None) -> Any:
        """Read-only invocation against one peer; nothing is ordered."""
        return self.network.query(self, contract, method, args or {})


class BlockchainNetwork:
    """N validating peers + consensus over a simulated network."""

    def __init__(
        self,
        n_peers: int = 4,
        consensus: ConsensusKind = "poa",
        latency: LatencyModel | None = None,
        block_interval: float = 0.5,
        max_block_txs: int = 500,
        seed: int = 0,
        byzantine_peers: set[str] | None = None,
        view_timeout: float = 10.0,
        drop_probability: float = 0.0,
        pipeline_depth: int = 4,
        storage: StorageKind = "durable",
        snapshot_interval: int = 64,
    ):
        if consensus not in ("poa", "pbft"):
            raise ChainError(f"unknown consensus {consensus!r}: expected 'poa' or 'pbft'")
        if storage not in _STORES:
            raise ChainError(f"unknown storage {storage!r}: expected 'durable' or 'sqlite'")
        if consensus == "pbft" and n_peers < 4:
            raise ChainError("PBFT requires at least 4 peers")
        self.sim = Simulator()
        #: One shared metrics registry + tracer per network: every peer,
        #: sync manager, consensus engine, and auditor feeds it, so one
        #: export (see :mod:`repro.obs.export`) covers the whole run.
        self.obs = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: self.sim.now, registry=self.obs)
        self.net = Network(
            self.sim, latency=latency, seed=seed,
            drop_probability=drop_probability, obs=self.obs,
        )
        self.rng = random.Random(seed + 1)
        self.seed = seed
        self.consensus = consensus
        self.peers: list[Peer] = []
        #: Attached :class:`repro.chain.audit.InvariantAuditor` instances;
        #: notified of admitted transactions and late-joined peers.
        self.auditors: list[Any] = []
        self._contract_factories: list[tuple[Callable[[], Contract], EndorsementPolicy | None]] = []
        self._policies: dict[str, EndorsementPolicy] = {}
        self.block_interval = block_interval
        self.max_block_txs = max_block_txs
        self.view_timeout = view_timeout
        #: PBFT in-flight sequence-number window (1 = unpipelined).
        self.pipeline_depth = pipeline_depth
        #: Every peer gets a fault-injectable SimDisk with a DurableStore
        #: on it, so restart is snapshot+tail recovery; ``"sqlite"`` builds
        #: the same store under the name the end-to-end harness asks for,
        #: whose two queries answer from the peer's ledger index.
        self.storage = storage
        self.snapshot_interval = snapshot_interval
        peer_ids = [f"peer-{i}" for i in range(n_peers)]
        self._validator_ids = list(peer_ids)
        byzantine_peers = byzantine_peers or set()
        for peer_id in peer_ids:
            peer = self._make_peer(peer_id, byzantine=peer_id in byzantine_peers)
            self.net.add_node(peer)
            self.peers.append(peer)
        #: Peer id -> Ed25519 public key of every peer, joiners included:
        #: the one ``peer.directory`` every peer checks another node's
        #: signature against (endorsements, sync statements, a synced
        #: tip's certificate).
        self.directory = {p.node_id: p.keypair.public_key for p in self.peers}
        for peer in self.peers:
            peer.directory = self.directory
        for peer in self.peers:
            peer.engine.start()
            peer.sync.start()

    def _make_engine(self) -> ConsensusEngine:
        """One engine per peer, per the network's ``consensus``, over the
        original validator set (a late joiner's engine observes it)."""
        if self.consensus == "poa":
            return RoundRobinOrderer(
                self._validator_ids, block_interval=self.block_interval,
                max_block_txs=self.max_block_txs,
            )
        return PBFTEngine(
            self._validator_ids, block_interval=self.block_interval,
            view_timeout=self.view_timeout, max_block_txs=self.max_block_txs,
            pipeline_depth=self.pipeline_depth,
        )

    def _make_peer(self, peer_id: str, byzantine: bool = False) -> Peer:
        """One peer with its own engine, and its own store on its own disk
        per the network's ``storage``."""
        disk = SimDisk(node_id=peer_id, rng=random.Random(f"disk:{self.seed}:{peer_id}"))
        store = _STORES[self.storage](
            disk=disk, node_id=peer_id, snapshot_interval=self.snapshot_interval
        )
        peer = Peer(
            node_id=peer_id,
            keypair=KeyPair.generate(self.rng),
            registry=ContractRegistry(),
            engine=self._make_engine(),
            byzantine=byzantine,
            obs=self.obs,
            tracer=self.tracer,
            store=store,
        )
        if isinstance(store, SQLiteStore):
            store.serve(lambda: peer.ledger)
        return peer

    # -- deployment -------------------------------------------------------

    def install_contract(
        self,
        contract_factory: Callable[[], Contract],
        policy: EndorsementPolicy | None = None,
    ) -> str:
        """Install a contract (one instance per peer) network-wide."""
        self._contract_factories.append((contract_factory, policy))
        name = ""
        for peer in self.peers:
            contract = contract_factory()
            peer.registry.install(contract)
            name = contract.name
            if policy is not None:
                peer.set_policy(name, policy)
        if policy is not None:
            self._policies[name] = policy
        return name

    def join_peer(self, node_id: str | None = None) -> Peer:
        """Add a full node after the network is already running.

        The new peer is an *observer*: it validates and commits every
        block but is not in the validator set, so it never proposes (PoA)
        or votes toward quorums (PBFT counts only original validators).
        Bootstrap is snapshot-style state transfer — committed blocks are
        replayed synchronously from the freshest live peer — after which
        normal block dissemination keeps it current.
        """
        node_id = node_id or f"peer-{len(self.peers)}"
        peer = self._make_peer(node_id)
        for factory, policy in self._contract_factories:
            contract = factory()
            peer.registry.install(contract)
            if policy is not None:
                peer.set_policy(contract.name, policy)
        self.net.add_node(peer)
        self.peers.append(peer)
        self.directory[node_id] = peer.keypair.public_key
        peer.directory = self.directory
        # State transfer: replay the committed chain from the freshest peer
        # (the newcomer itself, at height 0, when nobody else is up).
        source = self.freshest_peer()
        for height in range(1, source.ledger.height + 1):
            peer.commit_block(source.ledger.block(height))
        peer.engine.start()
        peer.sync.start()
        for auditor in self.auditors:
            auditor.watch_peer(peer)
        return peer

    def client(self, keypair: KeyPair | None = None) -> ChainClient:
        return ChainClient(keypair=keypair or KeyPair.generate(self.rng), network=self)

    # -- transaction path ----------------------------------------------------

    def endorse_transaction(
        self, client: ChainClient, contract: str, method: str, args: dict[str, Any]
    ) -> Transaction:
        """Build, sign, and gather endorsements for one proposal: the
        one-step form of :meth:`endorse_group`."""
        return self.endorse_group([(client, contract, method, args)])[0]

    def endorse_group(
        self, steps: Sequence[tuple[ChainClient, str, str, dict[str, Any] | None]]
    ) -> tuple[Transaction, ...]:
        """Build the ``(client, contract, method, args)`` *steps* as one
        unit (:func:`~repro.chain.transaction.create_group`): every step
        signed by its own client, all of them simulated in order by each
        endorsing peer, which signs the unit once.  A step that aborts
        raises :class:`ContractError` here, before anything is submitted."""
        proposals = []
        for client, contract, method, args in steps:
            client._nonce += 1
            proposals.append((client.keypair, contract, method, args, client._nonce))
        txs = create_group(proposals, self.sim.now)
        # Endorsement is a synchronous RPC outside the simulated network,
        # so the span's sim-time duration is 0 by construction; the wall_ms
        # attribute is the meaningful cost, and phase.endorse records it
        # in seconds so the report can show an endorse row per lifecycle.
        span = self.tracer.start(
            "endorse", tx_id=txs[0].endorsed_id[:12], contract=txs[0].contract,
            method=txs[0].method, n_txs=len(txs),
        )
        endorsed: tuple[Transaction, ...] = ()
        try:
            endorsed = gather_endorsements(
                txs, (peer.endorse(txs) for peer in self.peers),
                max(self._policy_of(tx.contract).required for tx in txs),
            )
        finally:
            self.tracer.finish(
                span, n_endorsements=len(endorsed[0].endorsements) if endorsed else 0
            )
            self.obs.histogram("phase.endorse").observe(
                span.attrs.get("wall_ms", 0.0) / 1000.0
            )
        return endorsed

    def _policy_of(self, contract: str) -> EndorsementPolicy:
        return self._policies.get(contract, EndorsementPolicy(required=1))

    def submit(self, tx: Transaction, *siblings: Transaction) -> Admission:
        """Hand an endorsed unit — a transaction, or with its *siblings*
        the members of one group — to a random peer for gossip.

        Returns the effective :class:`~repro.chain.peer.Admission`.  A
        ``DUPLICATE``/``COMMITTED`` outcome is success — the unit is
        already pending or final — and must *not* trigger the
        try-every-peer fallback (the seed code did, and could raise for
        a transaction that was happily in flight).  Only genuine
        rejections (``FULL``/``CRASHED``/``INVALID``/``OVERSIZED``) fall
        through to the other peers, and only if every peer rejects does
        this raise.
        """
        entry = self.rng.choice(self.peers)
        outcomes = {}
        for peer in [entry, *(p for p in self.peers if p is not entry)]:
            outcome = peer.submit(tx, *siblings)
            if outcome.accepted:
                for member in (tx, *siblings):
                    for auditor in self.auditors:
                        auditor.on_tx_admitted(member)
                return outcome
            outcomes[peer.node_id] = outcome
        detail = ", ".join(f"{node}: {out.value}" for node, out in outcomes.items())
        raise ChainError(f"no peer admitted tx {tx.tx_id[:12]} ({detail})")

    def query(self, client: ChainClient, contract: str, method: str, args: dict[str, Any]) -> Any:
        """Execute read-only against the freshest live peer, discard writes."""
        return self.read(contract, method, args, caller=client.address)

    def freshest_peer(self) -> Peer:
        """The live peer a read goes to: the one with the longest chain
        (the first of them in peer order)."""
        best, best_height = None, -1
        for peer in self.peers:
            if not peer.crashed:
                height = peer.ledger.height
                if height > best_height:
                    best, best_height = peer, height
        if best is None:
            raise ChainError("no live peer to read from")
        return best

    def read(self, contract: str, method: str, args: dict[str, Any], caller: str) -> Any:
        """The one query body (:meth:`query` and :meth:`NetworkedChain.query
        <repro.chain.adapter.NetworkedChain.query>` are its two call
        shapes): run *method* as *caller* on the freshest live peer."""
        peer = self.freshest_peer()
        result = peer.registry.execute(
            peer.state, contract, method, args, caller=caller,
            timestamp=self.sim.now, tx_id="query",
        )
        if not result.success:
            raise ContractError(result.error or "query failed")
        return result.return_value

    # -- progress ---------------------------------------------------------------

    def wait_for_receipt(self, tx_id: str, timeout: float = 120.0) -> TxReceipt:
        """Advance simulated time until *tx_id* commits on some peer."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            for peer in self.peers:
                receipt = peer.ledger.receipt(tx_id)
                if receipt is not None:
                    return receipt
            if not self.sim.step():
                break
        raise ChainError(f"tx {tx_id[:12]} did not commit within {timeout}s simulated")

    def run_for(self, duration: float) -> None:
        """Advance simulated time by *duration*."""
        self.sim.run(until=self.sim.now + duration)

    def stop(self) -> None:
        """Stop consensus engines and sync loops (lets the queue drain)."""
        for peer in self.peers:
            peer.engine.stop()
            peer.sync.stop()

    # -- inspection ---------------------------------------------------------------

    def assert_convergence(self) -> None:
        """Raise the first fork, else the first state split, among honest
        peers: :func:`~repro.chain.audit.fork_violations` over every
        honest ledger (crashed peers included), then
        :func:`~repro.chain.audit.state_violations` over the live ones.
        A Byzantine peer's ledger carries no guarantees and is not
        compared.  The error is an :class:`~repro.chain.audit.AuditViolation`
        (a :class:`ChainError`).
        """
        violations = fork_violations(self.peers) or state_violations(self.peers)
        if violations:
            raise violations[0]

    def committed_heights(self) -> dict[str, int]:
        return {p.node_id: p.ledger.height for p in self.peers}

