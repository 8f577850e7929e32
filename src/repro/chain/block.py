"""Blocks: ordered transaction batches chained by hash.

Each block commits to its transactions through a Merkle root, to its
predecessor through ``prev_hash``, and to its proposer.  Block hashes
cover the header only (the Merkle root stands in for the body), matching
how real chains keep headers verifiable without the full body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.transaction import Transaction
from repro.crypto.hashing import hash_json
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import InvalidBlockError
from repro.simnet.network import WireSized

__all__ = ["Block", "make_genesis_block", "GENESIS_PREV_HASH"]

GENESIS_PREV_HASH = "0" * 64


@dataclass(frozen=True)
class Block(WireSized):
    """An immutable block. Use :meth:`build` so derived fields stay consistent."""

    height: int
    prev_hash: str
    merkle_root: str
    timestamp: float
    proposer: str
    transactions: tuple[Transaction, ...]
    block_hash: str = field(default="")

    @classmethod
    def build(
        cls,
        height: int,
        prev_hash: str,
        timestamp: float,
        proposer: str,
        transactions: list[Transaction],
    ) -> "Block":
        txs = tuple(transactions)
        tree = MerkleTree([tx.tx_id for tx in txs])
        merkle_root = tree.root
        header_hash = cls._header_hash(height, prev_hash, merkle_root, timestamp, proposer)
        block = cls(
            height=height,
            prev_hash=prev_hash,
            merkle_root=merkle_root,
            timestamp=timestamp,
            proposer=proposer,
            transactions=txs,
            block_hash=header_hash,
        )
        # Seed the proof cache with the tree just built (see _merkle_tree).
        object.__setattr__(block, "_merkle_cache", tree)
        return block

    @staticmethod
    def _header_hash(
        height: int, prev_hash: str, merkle_root: str, timestamp: float, proposer: str
    ) -> str:
        return hash_json(
            {
                "height": height,
                "prev_hash": prev_hash,
                "merkle_root": merkle_root,
                "timestamp": timestamp,
                "proposer": proposer,
            }
        )

    def _merkle_tree(self) -> MerkleTree:
        """The block's Merkle tree, built once and cached.

        Blocks are immutable (frozen dataclass over a tuple of frozen
        transactions), so the cache never needs invalidation; before it
        existed every inclusion proof rebuilt the full tree, making an
        explorer serving p proofs over an n-tx block pay O(p·n) hashing.
        """
        tree = getattr(self, "_merkle_cache", None)
        if tree is None:
            tree = MerkleTree([tx.tx_id for tx in self.transactions])
            object.__setattr__(self, "_merkle_cache", tree)
        return tree

    def verify_structure(self) -> None:
        """Check internal consistency (root, hash); raise on tampering."""
        expected_root = self._merkle_tree().root
        if expected_root != self.merkle_root:
            raise InvalidBlockError(f"block {self.height}: Merkle root mismatch")
        expected_hash = self._header_hash(
            self.height, self.prev_hash, self.merkle_root, self.timestamp, self.proposer
        )
        if expected_hash != self.block_hash:
            raise InvalidBlockError(f"block {self.height}: header hash mismatch")

    def prove_inclusion(self, tx_id: str) -> MerkleProof:
        """Merkle inclusion proof for one of this block's transactions."""
        tx_ids = [tx.tx_id for tx in self.transactions]
        try:
            index = tx_ids.index(tx_id)
        except ValueError:
            raise InvalidBlockError(f"tx {tx_id[:12]} not in block {self.height}") from None
        return self._merkle_tree().prove(index)

    def __len__(self) -> int:
        return len(self.transactions)


def make_genesis_block(timestamp: float = 0.0) -> Block:
    """The fixed first block every peer starts from."""
    return Block.build(
        height=0,
        prev_hash=GENESIS_PREV_HASH,
        timestamp=timestamp,
        proposer="genesis",
        transactions=[],
    )
