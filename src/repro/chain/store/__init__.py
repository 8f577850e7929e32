"""Block storage: every peer write-ahead logs its commits on its own disk.

See :mod:`repro.chain.store.durable` for the write-ahead-log + snapshot
store, :mod:`repro.chain.store.base` for what a recovery returns and
reports, :mod:`repro.chain.store.snapshots` for the one snapshot format,
:mod:`repro.chain.store.sqlite` for ``SQLiteStore`` (the durable store
under the name the end-to-end harness asks for), and ``docs/API.md`` for
the record format and the recovery degradation ladder.
"""

from repro.chain.store.base import Degradation, RecoveredChain, RecoveryReport
from repro.chain.store.codec import decode_record, encode_record
from repro.chain.store.durable import DurableStore
from repro.chain.store.inspect import inspect_disk, inspect_files, render_inspection
from repro.chain.store.log import BlockLog, LogRecord, LogScan, scan_log_bytes
from repro.chain.store.snapshots import list_snapshots, load_snapshot, write_snapshot
from repro.chain.store.sqlite import SQLiteStore

__all__ = [
    "Degradation",
    "RecoveredChain",
    "RecoveryReport",
    "DurableStore",
    "SQLiteStore",
    "BlockLog",
    "LogRecord",
    "LogScan",
    "scan_log_bytes",
    "encode_record",
    "decode_record",
    "write_snapshot",
    "load_snapshot",
    "list_snapshots",
    "inspect_files",
    "inspect_disk",
    "render_inspection",
]
