"""LocalChain: a single-node, synchronous blockchain.

The trusting-news platform (``repro.core``) needs ledger semantics —
signed immutable transactions, contracts, events, auditability — but
most experiments don't need to pay full consensus simulation for every
article share.  ``LocalChain`` runs the identical transaction pipeline
(sign → execute → endorse → validate → block commit) on one in-process
peer, with the pieces every networked peer uses: ``invoke_group`` signs a
unit of steps (:func:`~repro.chain.transaction.create_group`), simulates
and signs it as the one endorser (:func:`~repro.chain.peer.simulate_and_sign`),
attaches the execution (:func:`~repro.chain.contracts.endorsement.gather_endorsements`)
and commits one block per unit through
:func:`repro.chain.commit.commit_block`; ``invoke`` is ``invoke_group`` of
one step.

Everything that reads the ledger (supply-chain graph construction,
expert mining, accountability tracing) works identically against a
LocalChain or a :class:`~repro.chain.network.BlockchainNetwork` peer,
because both expose the same :class:`~repro.chain.ledger.Ledger` and
:class:`~repro.chain.index.ChainIndex`.
E9 is the experiment where consensus latency itself is the subject, and
it uses the networked harness.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.chain.block import Block
from repro.chain.commit import commit_block
from repro.chain.contracts import Contract, ContractRegistry, EndorsementPolicy
from repro.chain.contracts.endorsement import gather_endorsements
from repro.chain.index import ChainIndex
from repro.chain.ledger import Ledger
from repro.chain.peer import simulate_and_sign
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, TxReceipt, create_group, signature_items
from repro.crypto.batch import verify_many
from repro.crypto.keys import KeyPair
from repro.errors import ContractError
from repro.chain.consensus.sharded import ShardedExecutor

__all__ = ["LocalChain"]

#: The single local peer endorses everything it commits.
_POLICY = EndorsementPolicy(required=1)


class LocalChain:
    """Synchronous single-peer chain with full transaction semantics."""

    def __init__(self, node_id: str = "local-peer", seed: int = 0, n_shards: int | None = None):
        import random

        self.node_id = node_id
        self.rng = random.Random(seed)
        self.keypair = KeyPair.generate(self.rng)
        self.registry = ContractRegistry()
        self.ledger = Ledger()
        #: Explorer index, fed at every commit (see repro.chain.index).
        self.index = ChainIndex()
        self.state = WorldState()
        #: Read-only ``tx id -> TxReceipt`` view of the ledger's record.
        self.receipts = self.ledger.receipts
        self.sharded_executor = ShardedExecutor(n_shards) if n_shards else None
        self._clock = 0.0
        self._nonces: dict[str, int] = {}

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock

    def advance_time(self, delta: float = 1.0) -> float:
        """Move the logical clock (transaction timestamps) forward."""
        if delta < 0:
            raise ValueError("time cannot go backwards")
        self._clock += delta
        return self._clock

    # -- deployment -----------------------------------------------------------

    def install_contract(self, contract: Contract, policy: EndorsementPolicy | None = None) -> str:
        self.registry.install(contract)
        return contract.name

    def new_account(self) -> KeyPair:
        """Mint a deterministic keypair for a participant."""
        return KeyPair.generate(self.rng)

    # -- transaction path ---------------------------------------------------------

    def invoke(
        self,
        keypair: KeyPair,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
    ) -> TxReceipt:
        """Sign, execute, endorse, and commit one transaction (one
        block): the one-step form of :meth:`invoke_group`."""
        return self.invoke_group([(keypair, contract, method, args)])[0]

    def invoke_group(
        self, steps: Sequence[tuple[KeyPair, str, str, dict[str, Any] | None]]
    ) -> list[TxReceipt]:
        """Commit ``(keypair, contract, method, args)`` *steps* as one
        unit (one block) and return their receipts; the semantics of
        :meth:`NetworkedChain.invoke_group
        <repro.chain.adapter.NetworkedChain.invoke_group>`: a contract
        abort surfaces as :class:`ContractError`, as a networked client
        sees it at endorsement time, and so does a unit judged invalid at
        commit.
        """
        txs = create_group(
            [(keypair, contract, method, args, self._next_nonce(keypair))
             for keypair, contract, method, args in steps],
            self._clock,
        )
        # The one local peer is the one endorser asked.
        endorsed = gather_endorsements(
            txs,
            [simulate_and_sign(self.registry, self.state, self.keypair, self.node_id, txs)],
            _POLICY.required,
        )
        receipts = self._commit(list(endorsed))
        if not receipts[0].success:
            raise ContractError(
                receipts[0].error or f"{txs[0].contract}.{txs[0].method} failed at commit"
            )
        return receipts

    def _next_nonce(self, keypair: KeyPair) -> int:
        nonce = self._nonces[keypair.address] = self._nonces.get(keypair.address, 0) + 1
        return nonce

    def _commit(self, txs: list[Transaction]) -> list[TxReceipt]:
        block = Block.build(
            height=self.ledger.height + 1,
            prev_hash=self.ledger.head.block_hash,
            timestamp=self._clock,
            proposer=self.node_id,
            transactions=txs,
        )
        # Warm the verify cache for the whole batch; the per-transaction
        # checks in the commit path then hit it.
        verify_many(signature_items(txs))
        result = commit_block(
            block, lambda contract: _POLICY,
            ledger=self.ledger, state=self.state, index=self.index,
        )
        if self.sharded_executor is not None and result.valid_txs:
            self.sharded_executor.plan_block(result.valid_txs)
        return [self.ledger.receipt_at(block.height, position) for position in range(len(txs))]

    def query(
        self,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
        caller: str = "query",
    ) -> Any:
        """Read-only execution; writes are discarded, nothing is committed."""
        result = self.registry.execute(
            self.state, contract, method, args or {},
            caller=caller, timestamp=self._clock, tx_id="query",
        )
        if not result.success:
            raise ContractError(result.error or "query failed")
        return result.return_value
