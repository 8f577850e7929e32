"""Periodic world-state snapshots: the fast half of recovery.

A snapshot pins what is needed to resume at height *H* without replaying
blocks 1..H: the world state dump (values + MVCC versions + commit
sequence) and the ledger's transaction index
(:meth:`ChainIndex.dump <repro.chain.index.ChainIndex.dump>`: one row per
transaction, so a restart rebuilds the index without decoding a block
below *H*).  It holds state and index rows, not history:
blocks, verdicts, error strings — and so every receipt — stay in the
block log and are read from there.  Each snapshot is its own file
(``snapshot-<height>``), fsync'd on write; the store keeps the newest
``DurableStore.KEEP_SNAPSHOTS`` — so a corrupt newest snapshot can
degrade to the one before it, and only a run with every snapshot damaged
falls all the way back to full replay.

This is the one snapshot format.
The file is one frame around the snapshot's canonical JSON, deflated
(:func:`~repro.chain.store.codec.deflate`; the CRC covers the stored,
deflated bytes)::

    +-------+---------+--------+------------------+
    | magic | length  | crc32  | payload          |
    | 2B    | u32     | u32    | `length` bytes   |
    +-------+---------+--------+------------------+

:func:`frame` packs it; :func:`unframe` checks the frame and
:func:`read_snapshot` everything after it — recovery and ``repro-news
store`` inspection run the same checks.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.chain.store.codec import decode_obj, deflate, encode_obj, inflate
from repro.simnet.disk import SimDisk

__all__ = [
    "SnapshotCandidate", "snapshot_name", "write_snapshot", "list_snapshots", "load_snapshot",
    "frame", "unframe", "read_snapshot",
]

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_MAGIC = b"RS"
_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32


@dataclass(frozen=True)
class SnapshotCandidate:
    """A snapshot file that may or may not prove valid on load."""

    name: str
    height: int


def frame(payload: bytes) -> bytes:
    return _HEADER.pack(SNAPSHOT_MAGIC, len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes) -> bytes | str:
    """The payload framed in *data*, or — as a ``str`` — the first check
    it fails."""
    if len(data) < _HEADER.size:
        return "shorter than header"
    found, length, crc = _HEADER.unpack_from(data, 0)
    if found != SNAPSHOT_MAGIC:
        return "bad magic"
    payload = data[_HEADER.size : _HEADER.size + length]
    if len(payload) < length:
        return "truncated payload"
    if zlib.crc32(payload) != crc:
        return "CRC mismatch"
    return payload


def snapshot_name(height: int) -> str:
    return f"{SNAPSHOT_PREFIX}{height:010d}"


def write_snapshot(
    disk: SimDisk,
    height: int,
    block_hash: str,
    state_dump: dict[str, Any],
    index: dict[str, Any],
) -> int:
    """Write + fsync one snapshot; returns bytes written."""
    payload = deflate(encode_obj(
        {"height": height, "block_hash": block_hash, "state": state_dump, "index": index}
    ))
    name = snapshot_name(height)
    disk.set_role(name, "snapshot")
    framed = frame(payload)
    disk.append(name, framed)
    disk.fsync(name)
    return len(framed)


def list_snapshots(disk: SimDisk) -> list[SnapshotCandidate]:
    """Durable snapshot files, oldest first (unverified)."""
    out = []
    for name in disk.names():
        if name.startswith(SNAPSHOT_PREFIX):
            try:
                out.append(SnapshotCandidate(name=name, height=int(name[len(SNAPSHOT_PREFIX):])))
            except ValueError:
                continue
    return sorted(out, key=lambda c: c.height)


def read_snapshot(data: bytes, height: int) -> tuple[dict[str, Any], int] | str:
    """The snapshot in the file bytes *data*, named for *height*, and the
    size *data* would have with its payload inflated; or — as a ``str`` —
    the first check it fails.  A snapshot is an object with an int
    ``height`` equal to the file's, a str ``block_hash`` and object
    ``state`` and ``index`` (one written before the index rows were
    carried cannot be resumed from).  Keys this version does not write
    (``receipts``, ``indexes``) are carried and ignored."""
    payload = unframe(data)
    if isinstance(payload, str):
        return payload
    try:
        text = inflate(payload)
        obj = decode_obj(text)
    except ValueError:
        return "undecodable payload"
    if not isinstance(obj, dict):
        return "payload is not an object"
    if type(obj.get("height")) is not int or obj["height"] != height:
        return f"height is not {height}"
    if not isinstance(obj.get("block_hash"), str):
        return "no block hash"
    if not isinstance(obj.get("state"), dict) or not isinstance(obj.get("index"), dict):
        return "no state or no index"
    return obj, len(data) - len(payload) + len(text)


def load_snapshot(disk: SimDisk, candidate: SnapshotCandidate) -> dict[str, Any] | None:
    """Verify-before-trust load (:func:`read_snapshot`); ``None`` if the
    file fails any check."""
    read = read_snapshot(disk.read(candidate.name), candidate.height)
    return None if isinstance(read, str) else read[0]
