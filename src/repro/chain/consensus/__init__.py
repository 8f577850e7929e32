"""Consensus engines: PBFT (a transport-free core and its driver),
round-robin PoA ordering, sharded execution."""

from repro.chain.consensus.base import ConsensusEngine
from repro.chain.consensus.pbft import PBFTEngine
from repro.chain.consensus.pbft_core import PBFTCore
from repro.chain.consensus.poa import RoundRobinOrderer
from repro.chain.consensus.sharded import ShardedExecutor, ShardSchedule

__all__ = [
    "ConsensusEngine",
    "PBFTCore",
    "PBFTEngine",
    "RoundRobinOrderer",
    "ShardedExecutor",
    "ShardSchedule",
]
