"""Permissioned blockchain substrate (from scratch).

Fabric-style execute–order–validate: signed transaction proposals are
simulated on endorsing peers (producing MVCC read/write sets), ordered
into Merkle-rooted blocks by a pluggable consensus engine (PBFT or a
round-robin PoA orderer), and validated at commit on every peer.
``LocalChain`` provides the same pipeline on one synchronous node for
platform-level experiments; ``BlockchainNetwork`` runs the distributed
protocols on the discrete-event simulator.
"""

from repro.chain.block import Block, make_genesis_block
from repro.chain.consensus import PBFTEngine, RoundRobinOrderer, ShardedExecutor, ShardSchedule
from repro.chain.contracts import (
    Contract,
    ContractContext,
    ContractRegistry,
    EndorsementPolicy,
    contract_method,
)
from repro.chain.adapter import NetworkedChain
from repro.chain.audit import AuditViolation, InvariantAuditor, recovery_latencies
from repro.chain.explorer import (
    chain_summary,
    describe_block,
    describe_transaction,
    find_transactions,
)
from repro.chain.index import ChainIndex
from repro.chain.ledger import CommittedTx, Ledger
from repro.chain.local import LocalChain
from repro.chain.mempool import Mempool
from repro.chain.network import BlockchainNetwork, ChainClient
from repro.chain.peer import Admission, Peer
from repro.chain.state import StateSnapshot, WorldState
from repro.chain.store import (
    BlockStore,
    Degradation,
    DurableStore,
    MemoryStore,
    RecoveredChain,
    RecoveryReport,
    SQLiteStore,
)
from repro.chain.sync import SyncManager
from repro.chain.transaction import Endorsement, Transaction, TxReceipt

__all__ = [
    "AuditViolation",
    "InvariantAuditor",
    "recovery_latencies",
    "Block",
    "make_genesis_block",
    "PBFTEngine",
    "RoundRobinOrderer",
    "ShardedExecutor",
    "ShardSchedule",
    "Contract",
    "ContractContext",
    "ContractRegistry",
    "EndorsementPolicy",
    "contract_method",
    "chain_summary",
    "describe_block",
    "describe_transaction",
    "find_transactions",
    "ChainIndex",
    "CommittedTx",
    "Ledger",
    "LocalChain",
    "NetworkedChain",
    "Mempool",
    "BlockchainNetwork",
    "ChainClient",
    "Admission",
    "Peer",
    "SyncManager",
    "StateSnapshot",
    "WorldState",
    "BlockStore",
    "Degradation",
    "DurableStore",
    "SQLiteStore",
    "MemoryStore",
    "RecoveredChain",
    "RecoveryReport",
    "Endorsement",
    "Transaction",
    "TxReceipt",
]
