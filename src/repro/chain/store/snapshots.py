"""Periodic world-state snapshots: the fast half of recovery.

A snapshot pins what is needed to resume at height *H* without replaying
blocks 1..H: the world state dump (values + MVCC versions + commit
sequence) and the ledger's tx-id locator.  It holds state, not history:
blocks, verdicts, error strings — and so every receipt — stay in the
block log and are read from there.  Snapshots are written to their own
file (``snapshot-<height>``), fsync'd on write, and pruned to the newest
*keep* — so a corrupt newest snapshot can degrade to the one before it,
and only a run with every snapshot damaged falls all the way back to full
replay.

Both snapshot media — these JSON files and the sqlite images of
:mod:`repro.chain.store.sqlite` — share one envelope, defined here and
nowhere else::

    +-------+---------+--------+------------------+
    | magic | length  | crc32  | payload          |
    | 2B    | u32     | u32    | `length` bytes   |
    +-------+---------+--------+------------------+

:func:`frame` packs it, :func:`unframe` is the verify-before-trust read
(recovery and ``repro-news store`` inspection run the same checks), and
:func:`write_framed` is the write + fsync + prune-to-*keep* cycle.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.chain.store.codec import decode_obj, encode_obj
from repro.simnet.disk import SimDisk

__all__ = [
    "SnapshotCandidate", "snapshot_name", "write_snapshot", "list_snapshots", "load_snapshot",
    "frame", "unframe", "write_framed", "artifact_height", "list_candidates",
]

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_MAGIC = b"RS"
_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32


@dataclass(frozen=True)
class SnapshotCandidate:
    """A snapshot file that may or may not prove valid on load."""

    name: str
    height: int


# -- the envelope and the file cycle, shared by both media ---------------------


def frame(payload: bytes, magic: bytes) -> bytes:
    return _HEADER.pack(magic, len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes, magic: bytes) -> bytes | str:
    """The payload framed in *data*, or — as a ``str`` — the first check
    it fails."""
    if len(data) < _HEADER.size:
        return "shorter than header"
    found, length, crc = _HEADER.unpack_from(data, 0)
    if found != magic:
        return "bad magic"
    payload = data[_HEADER.size : _HEADER.size + length]
    if len(payload) < length:
        return "truncated payload"
    if zlib.crc32(payload) != crc:
        return "CRC mismatch"
    return payload


def artifact_height(name: str, prefix: str, suffix: str = "") -> int | None:
    """The height in a ``<prefix><height><suffix>`` file name, if it is one."""
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    try:
        return int(name[len(prefix) : len(name) - len(suffix)])
    except ValueError:
        return None


def list_candidates(disk: SimDisk, prefix: str, suffix: str = "") -> list[SnapshotCandidate]:
    """Durable ``<prefix><height><suffix>`` files, oldest first (unverified)."""
    out = []
    for name in disk.names():
        height = artifact_height(name, prefix, suffix)
        if height is not None:
            out.append(SnapshotCandidate(name=name, height=height))
    return sorted(out, key=lambda c: c.height)


def write_framed(
    disk: SimDisk,
    name: str,
    magic: bytes,
    payload: bytes,
    keep: int,
    candidates: Callable[[], list[SnapshotCandidate]],
) -> int:
    """Frame, write and fsync *payload* as snapshot file *name*, then prune
    to the newest *keep* of ``candidates()`` (oldest first); returns bytes.

    *keep* must be >= 1: ``candidates()[:-keep]`` with ``keep <= 0``
    slices to the empty list, silently pruning nothing — the caller asked
    for "keep none" and got "keep everything", an unbounded disk leak.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    disk.set_role(name, "snapshot")
    framed = frame(payload, magic)
    disk.append(name, framed)
    disk.fsync(name)
    for stale in candidates()[:-keep]:
        disk.delete(stale.name)
    return len(framed)


# -- the JSON medium -----------------------------------------------------------


def snapshot_name(height: int) -> str:
    return f"{SNAPSHOT_PREFIX}{height:010d}"


def write_snapshot(
    disk: SimDisk,
    height: int,
    block_hash: str,
    state_dump: dict[str, Any],
    indexes: dict[str, Any],
    keep: int = 2,
) -> int:
    """Write + fsync one snapshot, prune to the newest *keep*; returns bytes."""
    payload = encode_obj(
        {"height": height, "block_hash": block_hash, "state": state_dump, "indexes": indexes}
    )
    return write_framed(
        disk, snapshot_name(height), SNAPSHOT_MAGIC, payload, keep, lambda: list_snapshots(disk)
    )


def list_snapshots(disk: SimDisk) -> list[SnapshotCandidate]:
    """Durable snapshot files, oldest first."""
    return list_candidates(disk, SNAPSHOT_PREFIX)


def load_snapshot(disk: SimDisk, candidate: SnapshotCandidate) -> dict[str, Any] | None:
    """Verify-before-trust load; ``None`` if the file fails any check.
    Keys this version does not write (``receipts``, from snapshots taken
    before receipts became a view of the ledger) are carried and ignored."""
    payload = unframe(disk.read(candidate.name), SNAPSHOT_MAGIC)
    if isinstance(payload, str):
        return None
    try:
        obj = decode_obj(payload)
    except ValueError:
        return None
    if obj.get("height") != candidate.height:
        return None
    return obj
