"""Periodic world-state snapshots: the fast half of recovery.

A snapshot pins everything needed to resume at height *H* without
replaying blocks 1..H: the world state dump (values + MVCC versions +
commit sequence), the receipt map, and the ledger's tx-id locator.
Snapshots are written to their own file (``snapshot-<height>``) with the
same CRC-framed envelope as log records, fsync'd on write, and pruned to
the newest *keep* — so a corrupt newest snapshot can degrade to the one
before it, and only a run with every snapshot damaged falls all the way
back to full replay.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.chain.store.codec import decode_obj, encode_obj
from repro.simnet.disk import SimDisk

__all__ = ["SnapshotCandidate", "snapshot_name", "write_snapshot", "list_snapshots", "load_snapshot"]

SNAPSHOT_PREFIX = "snapshot-"
_MAGIC = b"RS"
_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32


def snapshot_name(height: int) -> str:
    return f"{SNAPSHOT_PREFIX}{height:010d}"


def _height_of(name: str) -> int | None:
    try:
        return int(name[len(SNAPSHOT_PREFIX):])
    except ValueError:
        return None


@dataclass(frozen=True)
class SnapshotCandidate:
    """A snapshot file that may or may not prove valid on load."""

    name: str
    height: int


def write_snapshot(
    disk: SimDisk,
    height: int,
    block_hash: str,
    state_dump: dict[str, Any],
    receipts: list[dict[str, Any]],
    indexes: dict[str, Any],
    keep: int = 2,
) -> int:
    """Write + fsync one snapshot, prune to the newest *keep*; returns bytes.

    *keep* must be >= 1: ``list_snapshots(disk)[:-keep]`` with ``keep <= 0``
    slices to the empty list, silently pruning nothing — the caller asked
    for "keep none" and got "keep everything", an unbounded disk leak.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    payload = encode_obj(
        {
            "height": height,
            "block_hash": block_hash,
            "state": state_dump,
            "receipts": receipts,
            "indexes": indexes,
        }
    )
    name = snapshot_name(height)
    disk.set_role(name, "snapshot")
    framed = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload
    disk.append(name, framed)
    disk.fsync(name)
    for stale in list_snapshots(disk)[:-keep]:
        disk.delete(stale.name)
    return len(framed)


def list_snapshots(disk: SimDisk) -> list[SnapshotCandidate]:
    """Durable snapshot files, oldest first."""
    out = []
    for name in disk.names():
        if not name.startswith(SNAPSHOT_PREFIX):
            continue
        height = _height_of(name)
        if height is not None:
            out.append(SnapshotCandidate(name=name, height=height))
    return sorted(out, key=lambda c: c.height)


def load_snapshot(disk: SimDisk, candidate: SnapshotCandidate) -> dict[str, Any] | None:
    """Verify-before-trust load; ``None`` if the file fails any check."""
    data = disk.read(candidate.name)
    if len(data) < _HEADER.size:
        return None
    magic, length, crc = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC or _HEADER.size + length > len(data):
        return None
    payload = data[_HEADER.size : _HEADER.size + length]
    if zlib.crc32(payload) != crc:
        return None
    try:
        obj = decode_obj(payload)
    except ValueError:
        return None
    if obj.get("height") != candidate.height:
        return None
    return obj
