"""Offline inspection of a durable store's artifacts.

Backs the ``repro-news store`` CLI subcommand: given the raw bytes of a
store's files (from a live :class:`~repro.simnet.disk.SimDisk` or a
dumped directory), re-run the same verify-before-trust checks recovery
uses and report what a recovery *would* find — valid records, the torn
or corrupt tail, snapshot health, and the implied degradation ladder.
Inspection never mutates anything.
"""

from __future__ import annotations

from typing import Any

from repro.chain.store.codec import decode_obj
from repro.chain.store.log import LOG_NAME, scan_log_bytes
from repro.chain.store.snapshots import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_PREFIX,
    artifact_height,
    unframe,
)
from repro.chain.store.sqlite import IMAGE_MAGIC, IMAGE_PREFIX, IMAGE_SUFFIX

__all__ = ["inspect_files", "inspect_disk", "render_inspection"]


def _inspect_snapshot(name: str, data: bytes) -> dict[str, Any]:
    info: dict[str, Any] = {"file": name, "bytes": len(data), "valid": False}
    payload = unframe(data, SNAPSHOT_MAGIC)
    if isinstance(payload, str):
        info["problem"] = payload
        return info
    try:
        obj = decode_obj(payload)
    except ValueError:
        info["problem"] = "undecodable payload"
        return info
    info["valid"] = True
    info["height"] = obj.get("height")
    info["block_hash"] = obj.get("block_hash", "")[:16]
    info["state_keys"] = len(obj.get("state", {}).get("entries", []))
    return info


def _inspect_sqlite_image(name: str, data: bytes) -> dict[str, Any]:
    """Frame-level health of a serialized sqlite3 snapshot image
    (``chain-<height>.sqlite``, see :mod:`repro.chain.store.sqlite`)."""
    info: dict[str, Any] = {"file": name, "bytes": len(data), "valid": False}
    payload = unframe(data, IMAGE_MAGIC)
    if isinstance(payload, str):
        info["problem"] = payload
        return info
    info["valid"] = True
    info["height"] = artifact_height(name, IMAGE_PREFIX, IMAGE_SUFFIX)
    info["kind"] = "sqlite-image"
    return info


def inspect_files(files: dict[str, bytes]) -> dict[str, Any]:
    """Structured health report over ``{file name: durable bytes}``."""
    log_data = files.get(LOG_NAME, b"")
    scan = scan_log_bytes(log_data)
    snapshots = [
        _inspect_snapshot(name, data)
        for name, data in sorted(files.items())
        if name.startswith(SNAPSHOT_PREFIX)
    ]
    snapshots += [
        _inspect_sqlite_image(name, data)
        for name, data in sorted(files.items())
        if artifact_height(name, IMAGE_PREFIX, IMAGE_SUFFIX) is not None
    ]
    snapshots.sort(key=lambda s: (s.get("height") is None, s.get("height"), s["file"]))
    valid_snap_heights = [s["height"] for s in snapshots if s["valid"] and s["height"] <= scan.tip]
    recovery_snapshot = max(valid_snap_heights, default=0)
    return {
        "log": {
            "bytes": len(log_data),
            "valid_bytes": scan.valid_length,
            "garbage_bytes": len(log_data) - scan.valid_length,
            "records": len(scan.records),
            "tip": scan.tip,
            "failure": scan.failure,
        },
        "snapshots": snapshots,
        "recovery": {
            "snapshot_height": recovery_snapshot,
            "tail_records": max(0, scan.tip - recovery_snapshot),
            "mode": (
                "snapshot+tail" if recovery_snapshot
                else ("full-replay" if scan.records else "empty")
            ),
        },
    }


def inspect_disk(disk: Any) -> dict[str, Any]:
    """Inspect a live :class:`~repro.simnet.disk.SimDisk` (durable view)."""
    info = inspect_files({name: disk.read(name) for name in disk.names()})
    info["disk"] = disk.stats()
    return info


def render_inspection(info: dict[str, Any]) -> str:
    """Human-readable rendering for the CLI."""
    log = info["log"]
    lines = [
        "block log:",
        f"  {log['records']} valid records, tip height {log['tip']}",
        f"  {log['valid_bytes']}/{log['bytes']} bytes verified"
        + (f" ({log['garbage_bytes']} garbage: {log['failure']})" if log["failure"] else ""),
        "snapshots:",
    ]
    if not info["snapshots"]:
        lines.append("  (none)")
    for snap in info["snapshots"]:
        if not snap["valid"]:
            lines.append(f"  {snap['file']}: INVALID ({snap['problem']})")
        elif snap.get("kind") == "sqlite-image":
            lines.append(
                f"  {snap['file']}: OK, height {snap['height']}, "
                f"sqlite image ({snap['bytes']}B)"
            )
        else:
            lines.append(
                f"  {snap['file']}: OK, height {snap['height']}, "
                f"{snap['state_keys']} state keys"
            )
    recovery = info["recovery"]
    lines.append(
        f"recovery would use: {recovery['mode']} "
        f"(snapshot {recovery['snapshot_height']}, "
        f"{recovery['tail_records']} tail records)"
    )
    disk = info.get("disk")
    if disk:
        lines.append(
            f"disk: {disk['fsyncs']} fsyncs, {disk['bytes_synced']}B synced, "
            f"{disk['crashes']} crashes, {len(disk['faults'])} injected faults"
        )
        for fault in disk["faults"]:
            lines.append(f"  fault: {fault['kind']} on {fault['file']} ({fault['detail']})")
    return "\n".join(lines)
