"""The append-only, checksummed, length-prefixed block log.

Record framing (all integers big-endian)::

    +-------+---------+---------+--------+------------------+
    | magic | height  | length  | crc32  | payload          |
    | 2B    | u32     | u32     | u32    | `length` bytes   |
    +-------+---------+---------+--------+------------------+

The payload is the canonical-JSON record from
:mod:`repro.chain.store.codec`.  The CRC covers the payload only; the
magic and the height/length sanity checks cover the header.  ``scan``
never trusts bytes it cannot prove: it walks records front to back and
stops at the first framing violation, classifying it as a *torn tail*
(file ends mid-record — the normal crash pattern, repaired by
truncation) or *corruption* (bad magic / CRC mismatch / non-contiguous
height — bytes present but wrong, also repaired by truncation, but
counted separately because it means media damage, not a crash).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.simnet.disk import SimDisk

__all__ = ["BlockLog", "LogRecord", "LogScan", "scan_log_bytes", "LOG_NAME"]

LOG_NAME = "blocks.log"
_MAGIC = b"RL"
_HEADER = struct.Struct(">2sIII")  # magic, height, payload length, crc32
#: Sanity bound on one record; a length field above this is corruption,
#: not a plausible block.
_MAX_RECORD = 64 * 1024 * 1024


@dataclass(frozen=True)
class LogRecord:
    """One verified record: where it sits and what it carries."""

    height: int
    offset: int  # start of the header within the log
    payload: bytes
    crc: int


@dataclass
class LogScan:
    """Result of a verify-before-trust scan of the whole log."""

    records: list[LogRecord] = field(default_factory=list)
    valid_length: int = 0  # bytes proven good; everything past is garbage
    total_length: int = 0
    failure: str | None = None  # None | "torn-tail" | "bad-magic" | "crc-mismatch" | "height-gap" | "oversized-record"

    @property
    def tip(self) -> int:
        return self.records[-1].height if self.records else 0


def scan_log_bytes(data: bytes, expect_first: int = 1) -> LogScan:
    """Scan raw log bytes; trust only records that prove themselves.

    Heights must be contiguous starting at *expect_first* — a gap means
    the log was damaged between records (e.g. a partial flush landing
    mid-file), and everything from the gap on is untrusted.
    """
    scan = LogScan(total_length=len(data))
    offset = 0
    expected = expect_first
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            scan.failure = "torn-tail"
            break
        magic, height, length, crc = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC:
            scan.failure = "bad-magic"
            break
        if length > _MAX_RECORD:
            scan.failure = "oversized-record"
            break
        end = offset + _HEADER.size + length
        if end > len(data):
            scan.failure = "torn-tail"
            break
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            scan.failure = "crc-mismatch"
            break
        if height != expected:
            scan.failure = "height-gap"
            break
        scan.records.append(LogRecord(height=height, offset=offset, payload=payload, crc=crc))
        scan.valid_length = end
        offset = end
        expected += 1
    return scan


class BlockLog:
    """The write-ahead block log over one node's :class:`SimDisk`."""

    def __init__(self, disk: SimDisk, name: str = LOG_NAME):
        self.disk = disk
        self.name = name
        disk.set_role(name, "log")

    def append(self, height: int, payload: bytes) -> None:
        """Frame, append, and fsync one record — durable when this returns
        (modulo injected faults: a lying drive is exactly what the chaos
        schedule tests)."""
        header = _HEADER.pack(_MAGIC, height, len(payload), zlib.crc32(payload))
        self.disk.append(self.name, header + payload)
        self.disk.fsync(self.name)

    def scan(self) -> LogScan:
        return scan_log_bytes(self.disk.read(self.name))

    def truncate(self, valid_length: int) -> None:
        """Repair: cut everything past the proven-good prefix."""
        self.disk.truncate(self.name, valid_length)
