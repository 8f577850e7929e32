"""Canonical JSON codec for durable block-log records and snapshots.

One record encodes everything ``Peer.restart`` needs to rebuild the
block's effect without re-running consensus: the block itself (header +
full transactions), the per-tx validity verdicts the commit path
produced, the per-tx error strings (so the failure receipts a recovered
ledger serves are byte-equal to the originals), and the consensus
proof (PBFT commit certificate + vote signatures) so recovery can
re-verify the tail *before* trusting it.

Encoding is compact sorted-key JSON — deterministic bytes, so the CRC in
the log framing (see :mod:`repro.chain.store.log`) pins the exact
content, and two peers logging the same block produce identical records.
``default=str`` matches the transaction-signing payload convention.
"""

from __future__ import annotations

import json
from typing import Any

from repro.chain.block import Block
from repro.chain.transaction import Endorsement, Transaction

__all__ = [
    "encode_record",
    "decode_record",
    "encode_obj",
    "decode_obj",
    "block_to_obj",
    "block_from_obj",
]


def encode_obj(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")


def decode_obj(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


def _tx_to_obj(tx: Transaction) -> dict[str, Any]:
    obj = {
        "sender": tx.sender,
        "public_key_hex": tx.public_key_hex,
        "contract": tx.contract,
        "method": tx.method,
        "args": tx.args,
        "nonce": tx.nonce,
        "timestamp": tx.timestamp,
        "signature_hex": tx.signature_hex,
        "tx_id": tx.tx_id,
        "read_set": tx.read_set,
        "write_set": tx.write_set,
        "endorsements": [
            {
                "peer_id": e.peer_id,
                "public_key_hex": e.public_key_hex,
                "digest": e.digest,
                "signature_hex": e.signature_hex,
            }
            for e in tx.endorsements
        ],
        "events": list(tx.events),
        "return_value": tx.return_value,
    }
    if tx.group is not None:  # a transaction on its own encodes as it always did
        obj["group"] = tx.group
    return obj


def _tx_from_obj(obj: dict[str, Any]) -> Transaction:
    return Transaction(
        sender=obj["sender"],
        public_key_hex=obj["public_key_hex"],
        contract=obj["contract"],
        method=obj["method"],
        args=obj["args"],
        nonce=obj["nonce"],
        timestamp=obj["timestamp"],
        signature_hex=obj["signature_hex"],
        tx_id=obj["tx_id"],
        read_set=dict(obj["read_set"]),
        write_set=dict(obj["write_set"]),
        endorsements=tuple(Endorsement(**e) for e in obj["endorsements"]),
        events=tuple(obj["events"]),
        return_value=obj["return_value"],
        group=tuple(obj["group"]) if "group" in obj else None,
    )


def block_to_obj(block: Block) -> dict[str, Any]:
    return {
        "height": block.height,
        "prev_hash": block.prev_hash,
        "merkle_root": block.merkle_root,
        "timestamp": block.timestamp,
        "proposer": block.proposer,
        "block_hash": block.block_hash,
        "transactions": [_tx_to_obj(tx) for tx in block.transactions],
    }


def block_from_obj(obj: dict[str, Any]) -> Block:
    return Block(
        height=obj["height"],
        prev_hash=obj["prev_hash"],
        merkle_root=obj["merkle_root"],
        timestamp=obj["timestamp"],
        proposer=obj["proposer"],
        transactions=tuple(_tx_from_obj(t) for t in obj["transactions"]),
        block_hash=obj["block_hash"],
    )


#: Canonical bytes of the blocks encoded last, keyed by identity (each
#: entry holds its block, so an id is never reused while it is a key).
#: The peers of one process commit the *same* immutable ``Block`` object,
#: so its bytes are produced for the first peer's WAL and found here by
#: the others.  Small and bounded on purpose: the bytes of every block of
#: a long chain, kept on the block for the life of the ledger, are a
#: second copy of the chain in memory.
_BLOCK_BYTES_KEPT = 8
_block_bytes: dict[int, tuple[Block, bytes]] = {}


def _encode_block(block: Block) -> bytes:
    kept = _block_bytes.get(id(block))
    if kept is not None:
        return kept[1]
    data = encode_obj(block_to_obj(block))
    if len(_block_bytes) >= _BLOCK_BYTES_KEPT:
        del _block_bytes[next(iter(_block_bytes))]
    _block_bytes[id(block)] = (block, data)
    return data


def encode_record(
    block: Block,
    validity: list[bool],
    errors: list[str | None] | None = None,
    proof: Any = None,
) -> bytes:
    """One log-record payload: block + commit verdicts + consensus proof.

    Byte for byte ``encode_obj({"block": ..., "errors": ..., "proof": ...,
    "validity": ...})`` — sorted keys, so that is the order of the splice
    — with the block's part, by far the largest and the same for every
    peer that logs this block, taken from :func:`_encode_block`'s memo;
    verdicts, error strings and proof are each peer's own and are encoded
    per call.
    """
    if errors is None:
        errors = [None] * len(validity)
    return b"".join((
        b'{"block":', _encode_block(block),
        b',"errors":', encode_obj(list(errors)),
        b',"proof":', encode_obj(proof),
        b',"validity":', encode_obj(list(validity)),
        b"}",
    ))


def decode_record(payload: bytes) -> tuple[Block, list[bool], list[str | None], Any]:
    obj = decode_obj(payload)
    return (
        block_from_obj(obj["block"]),
        [bool(v) for v in obj["validity"]],
        list(obj["errors"]),
        obj["proof"],
    )
