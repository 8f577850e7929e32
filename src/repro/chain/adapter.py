"""NetworkedChain: run the platform on the distributed chain.

:class:`~repro.core.platform.TrustingNewsPlatform` programs against the
LocalChain interface (``invoke`` / ``query`` / ``ledger`` / clock).
This adapter provides the same interface on top of a
:class:`~repro.chain.network.BlockchainNetwork`, so the identical
platform code runs over real consensus: ``invoke_group`` endorses a list
of steps once, submits them as one unit and advances simulated time until
their one block commits, and ``invoke`` is that for a list of one step —
there is one write path, and a transaction on its own is a unit of one.

This is the deployment the paper actually describes; LocalChain exists
so experiments that aren't *about* consensus don't pay for it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.chain.contracts import Contract, EndorsementPolicy
from repro.chain.ledger import Ledger
from repro.chain.network import BlockchainNetwork, ChainClient
from repro.chain.transaction import TxReceipt
from repro.crypto.keys import KeyPair
from repro.errors import ContractError

__all__ = ["NetworkedChain"]


class NetworkedChain:
    """LocalChain-compatible facade over a BlockchainNetwork."""

    def __init__(self, network: BlockchainNetwork, receipt_timeout: float = 120.0):
        self.network = network
        self.receipt_timeout = receipt_timeout
        self.node_id = "networked-chain"
        self._clients: dict[str, ChainClient] = {}

    # -- accounts & time -----------------------------------------------------

    def new_account(self) -> KeyPair:
        return KeyPair.generate(self.network.rng)

    @property
    def now(self) -> float:
        return self.network.sim.now

    def advance_time(self, delta: float = 1.0) -> float:
        if delta < 0:
            raise ValueError("time cannot go backwards")
        self.network.run_for(delta)
        return self.now

    # -- deployment -------------------------------------------------------------

    def install_contract(self, contract: Contract, policy: EndorsementPolicy | None = None) -> str:
        """Install one contract instance on every peer, a later joiner
        included (:meth:`BlockchainNetwork.install_contract
        <repro.chain.network.BlockchainNetwork.install_contract>`).

        Contracts are stateless by construction (all state lives in the
        world state behind the context), so sharing the instance across
        peers is safe.
        """
        return self.network.install_contract(lambda: contract, policy)

    # -- ledger -------------------------------------------------------------------

    @property
    def ledger(self) -> Ledger:
        """The freshest live peer's ledger (they agree on the prefix)."""
        return self.network.freshest_peer().ledger

    # -- transaction path -------------------------------------------------------------

    def _client_for(self, keypair: KeyPair) -> ChainClient:
        client = self._clients.get(keypair.address)
        if client is None:
            client = ChainClient(keypair=keypair, network=self.network)
            self._clients[keypair.address] = client
        return client

    def invoke(
        self,
        keypair: KeyPair,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
    ) -> TxReceipt:
        """Endorse, order, and commit one invocation; raise on failure:
        the one-step form of :meth:`invoke_group`.

        One call is one consensus round, and nothing ties two calls
        together: steps that must all take effect or none — a publish —
        go through one :meth:`invoke_group`, not a sequence of these.
        """
        return self.invoke_group([(keypair, contract, method, args)])[0]

    def invoke_group(
        self, steps: Sequence[tuple[KeyPair, str, str, dict[str, Any] | None]]
    ) -> list[TxReceipt]:
        """Commit ``(keypair, contract, method, args)`` *steps* as one
        unit and return their receipts: endorsed once over one
        speculative state (a later step sees an earlier one's writes; an
        abort in any step raises :class:`ContractError` with nothing
        submitted — LocalChain semantics), ordered as one mempool entry
        into one block, and valid there all together or not at all — in
        which case this raises too and no step took effect.  Receipts are
        only returned once the unit is final on some peer.
        """
        txs = self.network.endorse_group(
            [(self._client_for(keypair), contract, method, args)
             for keypair, contract, method, args in steps]
        )
        self.network.submit(*txs)
        receipts = [
            self.network.wait_for_receipt(tx.tx_id, timeout=self.receipt_timeout) for tx in txs
        ]
        if not receipts[0].success:
            raise ContractError(
                receipts[0].error or f"{txs[0].contract}.{txs[0].method} failed at commit"
            )
        self._barrier(receipts[0].block_height)
        return receipts

    def _barrier(self, height: int) -> None:
        """Advance time until every live peer applied block *height*.

        The platform issues dependent *calls* back-to-back (a vote on the
        article just published); without the barrier the next proposal
        may be endorsed on a peer that has not applied this commit yet,
        and fail MVCC validation — correct Fabric behaviour, but
        pointless churn for a sequential client.  It orders one call
        after another and does nothing for atomicity: the steps *inside*
        one :meth:`invoke_group` need no barrier between them (they are
        simulated over each other's writes and commit in one block), and
        the group pays for one barrier, after its block.
        """
        deadline = self.now + self.receipt_timeout
        while self.now < deadline:
            live = [p for p in self.network.peers if not p.crashed]
            if all(p.ledger.height >= height for p in live):
                return
            if not self.network.sim.step():
                return

    def query(
        self,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
        caller: str = "query",
    ) -> Any:
        """Read-only execution on the freshest live peer."""
        return self.network.read(contract, method, args or {}, caller)
