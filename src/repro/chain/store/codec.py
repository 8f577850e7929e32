"""Codec for durable block-log records and snapshots: canonical JSON, deflated.

One record encodes everything ``Peer.restart`` needs to rebuild the
block's effect without re-running consensus: the block itself (header +
full transactions), the per-tx validity verdicts the commit path
produced, the per-tx error strings (so the failure receipts a recovered
ledger serves are byte-equal to the originals), and the consensus
proof (PBFT commit certificate + vote signatures) so recovery can
re-verify the tail *before* trusting it.

A record is compact sorted-key JSON, stored deflated: :func:`deflate`
(zlib at :data:`DEFLATE_LEVEL`) of those bytes is what the log frames
and its CRC covers (see :mod:`repro.chain.store.log`); snapshots are
stored the same way.  Both steps are deterministic, so the CRC pins the
exact content and two peers logging the same block with the same
verdicts and proof produce identical records.  :func:`encode_obj` is
:func:`repro.crypto.hashing.canonical_json`, the encoder the
transaction-signing payload uses too.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.chain.block import Block
from repro.chain.transaction import Endorsement, Transaction
from repro.crypto.hashing import canonical_json

__all__ = [
    "CodecError",
    "encode_record",
    "decode_record",
    "encode_obj",
    "decode_obj",
    "deflate",
    "inflate",
    "block_to_obj",
    "block_from_obj",
]


encode_obj = canonical_json


def decode_obj(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


#: zlib level of every durable byte.  Level 1 already takes the canonical
#: JSON (hex keys and signatures, field names repeated per transaction, a
#: record's arguments echoed in its write set and event) to about a fifth
#: of its size; higher levels cost more per commit for a few per cent.
DEFLATE_LEVEL = 1


def deflate(data: bytes) -> bytes:
    """The bytes a durable file stores for *data*."""
    return zlib.compress(data, DEFLATE_LEVEL)


def inflate(stored: bytes) -> bytes:
    """Undo :func:`deflate`; bytes that do not inflate raise ``ValueError``
    like any other undecodable payload."""
    try:
        return zlib.decompress(stored)
    except zlib.error as exc:
        raise ValueError(f"payload does not inflate: {exc}") from exc


class CodecError(ValueError):
    """A payload that is not a record this codec writes: it does not
    inflate or parse, a field is missing, unknown or of the wrong type,
    or its verdicts and error strings are not one per transaction."""


_NUMBER = (int, float)
_BLOCK_FIELDS = {
    "height": int, "prev_hash": str, "merkle_root": str, "timestamp": _NUMBER,
    "proposer": str, "block_hash": str, "transactions": list,
}
_TX_FIELDS = {
    "sender": str, "public_key_hex": str, "contract": str, "method": str, "args": dict,
    "nonce": int, "timestamp": _NUMBER, "signature_hex": str, "tx_id": str,
    "read_set": dict, "write_set": dict, "endorsements": list, "events": list,
    "return_value": object,
}
_ENDORSEMENT_FIELDS = {"peer_id": str, "digest": str, "signature_hex": str}
_RECORD_FIELDS = {"block": dict, "errors": list, "proof": object, "validity": list}


def _typed(value: Any, kind: Any, where: str) -> Any:
    # JSON's true/false decode to bool, which Python counts as an int.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise CodecError(f"{where} is {type(value).__name__}")
    return value


def _fields(obj: Any, schema: dict[str, Any], where: str, optional: tuple[str, ...] = ()) -> Any:
    """*obj*, once it is a dict with exactly *schema*'s keys (and any of
    *optional*) and every value of its schema type."""
    _typed(obj, dict, where)
    missing = schema.keys() - obj.keys()
    unknown = obj.keys() - schema.keys() - set(optional)
    if missing or unknown:
        raise CodecError(f"{where}: missing {sorted(missing)}, unknown {sorted(unknown)}")
    for name, kind in schema.items():
        if kind is not object:
            _typed(obj[name], kind, f"{where}.{name}")
    return obj


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


def _tx_from_obj(obj: Any) -> Transaction:
    obj = _fields(obj, _TX_FIELDS, "transaction", optional=("group",))
    read_set = obj["read_set"]
    for version in read_set.values():
        _typed(version, int, "transaction.read_set version")
    group = obj.get("group")  # absent on a transaction on its own, never null
    if "group" in obj:
        _typed(group, list, "transaction.group")
        if [type(part) for part in group] != [str, int, int]:
            raise CodecError("transaction.group is not [root, position, size]")
    for event in obj["events"]:
        _typed(event, dict, "transaction.events entry")
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
        read_set=dict(read_set),
        write_set=dict(obj["write_set"]),
        endorsements=tuple(
            Endorsement(**_fields(e, _ENDORSEMENT_FIELDS, "endorsement"))
            for e in obj["endorsements"]
        ),
        events=tuple(obj["events"]),
        return_value=obj["return_value"],
        group=None if group is None else tuple(group),
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


def block_from_obj(obj: Any) -> Block:
    """Inverse of :func:`block_to_obj`; raises :class:`CodecError` unless
    every field is there, known and of its type."""
    obj = _fields(obj, _BLOCK_FIELDS, "block")
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

    ``deflate(encode_obj({"block": ..., "errors": ..., "proof": ...,
    "validity": ...}))``: the JSON is spliced byte for byte — sorted keys,
    so that is the order of the splice — with the block's part, by far the
    largest and the same for every peer that logs this block, taken from
    :func:`_encode_block`'s memo; verdicts, error strings and proof are
    each peer's own and are encoded, and the whole deflated, per call.
    """
    if errors is None:
        errors = [None] * len(validity)
    return deflate(b"".join((
        b'{"block":', _encode_block(block),
        b',"errors":', encode_obj(list(errors)),
        b',"proof":', encode_obj(proof),
        b',"validity":', encode_obj(list(validity)),
        b"}",
    )))


def decode_record(payload: bytes) -> tuple[Block, list[bool], list[str | None], Any]:
    """Inverse of :func:`encode_record`.  Anything but a record it
    writes — a payload that does not inflate or parse, a field missing,
    unknown or of the wrong type, verdicts or error strings that are not
    one per transaction — raises :class:`CodecError`."""
    try:
        obj = decode_obj(inflate(payload))
    except ValueError as exc:  # zlib, UTF-8 and JSON errors alike
        raise CodecError(str(exc)) from exc
    obj = _fields(obj, _RECORD_FIELDS, "record")
    block = block_from_obj(obj["block"])
    validity = [_typed(v, bool, "record.validity entry") for v in obj["validity"]]
    errors = [e if e is None else _typed(e, str, "record.errors entry") for e in obj["errors"]]
    if len(validity) != len(block.transactions) or len(errors) != len(block.transactions):
        raise CodecError(
            f"{len(validity)} verdicts and {len(errors)} error strings "
            f"for {len(block.transactions)} transactions")
    return block, validity, errors, obj["proof"]
