"""Offline inspection of a durable store's artifacts.

Backs the ``repro-news store`` CLI subcommand: given the raw bytes of a
store's files (from a live :class:`~repro.simnet.disk.SimDisk` or a
dumped directory), report valid records, the torn or corrupt tail and
snapshot health, and what deflating saved: the size of the log's
verified records and of each snapshot once inflated, beside the bytes
stored.  What a recovery *would* do is not predicted by a rule of its
own: :meth:`DurableStore.recover
<repro.chain.store.durable.DurableStore.recover>` runs on a scratch
copy of the files, and its report is the answer.  Offline there is no
consensus engine, so stored commit certificates are not checked.
Inspection never mutates anything.
"""

from __future__ import annotations

from typing import Any

from repro.chain.store.codec import inflate
from repro.chain.store.durable import DurableStore
from repro.chain.store.log import LOG_NAME, LogScan, scan_log_bytes
from repro.chain.store.snapshots import SNAPSHOT_PREFIX, read_snapshot
from repro.simnet.disk import SimDisk

__all__ = ["inspect_files", "inspect_disk", "render_inspection"]


def _inspect_snapshot(name: str, data: bytes) -> dict[str, Any]:
    info: dict[str, Any] = {"file": name, "bytes": len(data), "valid": False}
    try:
        height = int(name[len(SNAPSHOT_PREFIX):])
    except ValueError:
        info["problem"] = "no height in file name"
        return info
    read = read_snapshot(data, height)
    if isinstance(read, str):
        info["problem"] = read
        return info
    obj, info["inflated_bytes"] = read
    info["valid"] = True
    info["height"] = height
    info["block_hash"] = obj["block_hash"][:16]
    info["state_keys"] = len(obj["state"].get("entries", []))
    return info


def _inflated_log_bytes(scan: LogScan) -> tuple[int, list[int]]:
    """The verified records' size with each payload inflated (the frame
    headers counted as stored), and the heights whose payload does not
    inflate — recovery cuts the log at the first of those."""
    total, broken = scan.valid_length, []
    for record in scan.records:
        try:
            total += len(inflate(record.payload)) - len(record.payload)
        except ValueError:
            broken.append(record.height)
    return total, broken


def inspect_files(files: dict[str, bytes]) -> dict[str, Any]:
    """Structured health report over ``{file name: durable bytes}``."""
    log_data = files.get(LOG_NAME, b"")
    scan = scan_log_bytes(log_data)
    snapshots = [
        _inspect_snapshot(name, data)
        for name, data in sorted(files.items())
        if name.startswith(SNAPSHOT_PREFIX)
    ]
    inflated, not_inflating = _inflated_log_bytes(scan)
    scratch = SimDisk("inspect")
    for name, data in files.items():
        scratch.append(name, data)
        scratch.fsync(name)
    return {
        "log": {
            "bytes": len(log_data),
            "valid_bytes": scan.valid_length,
            "garbage_bytes": len(log_data) - scan.valid_length,
            "inflated_bytes": inflated,
            "not_inflating": not_inflating,
            "records": len(scan.records),
            "tip": scan.tip,
            "failure": scan.failure,
        },
        "snapshots": snapshots,
        "recovery": DurableStore(disk=scratch).recover().report.summary(),
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
        f"  {log['valid_bytes']} bytes stored deflated, {log['inflated_bytes']} inflated",
    ]
    if log["not_inflating"]:
        lines.append(
            f"  {len(log['not_inflating'])} record(s) do not inflate, "
            f"first at height {log['not_inflating'][0]}")
    lines.append("snapshots:")
    if not info["snapshots"]:
        lines.append("  (none)")
    for snap in info["snapshots"]:
        if not snap["valid"]:
            lines.append(f"  {snap['file']}: INVALID ({snap['problem']})")
        else:
            lines.append(
                f"  {snap['file']}: OK, height {snap['height']}, "
                f"{snap['state_keys']} state keys, "
                f"{snap['bytes']} bytes stored deflated, {snap['inflated_bytes']} inflated"
            )
    recovery = info["recovery"]
    lines.append(
        f"recovery would use: {recovery['mode']} "
        f"(snapshot {recovery['snapshot_height']}, "
        f"{recovery['tail_records']} tail records)"
    )
    for step in recovery["degradations"]:
        lines.append(f"  after {step['kind']} at height {step['height']}: {step['detail']}")
    disk = info.get("disk")
    if disk:
        lines.append(
            f"disk: {disk['fsyncs']} fsyncs, {disk['bytes_synced']}B synced, "
            f"{disk['crashes']} crashes, {len(disk['faults'])} injected faults"
        )
        for fault in disk["faults"]:
            lines.append(f"  fault: {fault['kind']} on {fault['file']} ({fault['detail']})")
    return "\n".join(lines)
