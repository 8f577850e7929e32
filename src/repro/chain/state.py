"""Versioned world state with MVCC read-set validation.

Fabric-style: every key carries the commit sequence number that last
wrote it.  Contract execution runs against a :class:`StateSnapshot` that
records what it read (key -> version) and buffers what it wrote; at
commit time :meth:`WorldState.validate_read_set` rejects transactions
whose reads went stale between endorsement and ordering.  That rejection
rate is itself an experimental signal (the sharded executor in E9 exists
to reduce cross-shard conflicts).
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Iterator

from repro.chain.transaction import ReadSet, WriteSet

__all__ = ["WorldState", "StateSnapshot", "VersionedValue"]

_ABSENT_VERSION = -1  # version reported for keys that do not exist

#: Immutable JSON-scalar types that are safe to hand out and take in
#: without a defensive deep copy (bool before int is irrelevant — both
#: are immutable).  Containers still get copied: a caller mutating a
#: returned list/dict must never reach committed state.
_SCALARS = (str, int, float, bool, type(None))


def _isolate(value: Any) -> Any:
    """A copy of *value* that shares nothing mutable with it.

    World-state values are JSON by construction (they go through the WAL
    codec), so the copy is structural: scalars as they are, exact
    ``dict`` and ``list`` rebuilt by recursion (keys are hashable and
    stay shared).  Any other type — a tuple, a set, a dict subclass —
    takes ``copy.deepcopy``, as every value used to.
    """
    if isinstance(value, _SCALARS):
        return value
    kind = type(value)
    if kind is dict:
        return {key: _isolate(item) for key, item in value.items()}
    if kind is list:
        return [_isolate(item) for item in value]
    return copy.deepcopy(value)


@dataclass
class VersionedValue:
    value: Any
    version: int


class WorldState:
    """The committed key-value state of one peer."""

    def __init__(self) -> None:
        self._store: dict[str, VersionedValue] = {}
        #: Sorted view of the store's keys, maintained incrementally so
        #: prefix scans are O(log n + k) instead of re-sorting the whole
        #: store per scan.
        self._sorted_keys: list[str] = []
        self._commit_seq = 0

    # -- reads ------------------------------------------------------------

    def get(self, key: str) -> Any:
        entry = self._store.get(key)
        return _isolate(entry.value) if entry is not None else None

    def version(self, key: str) -> int:
        entry = self._store.get(key)
        return entry.version if entry is not None else _ABSENT_VERSION

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def keys_with_prefix(self, prefix: str) -> Iterator[str]:
        """Range scan by key prefix (contracts use composite keys).

        Served from the maintained sorted index: bisect to the first
        candidate, then walk while the prefix holds.
        """
        index = self._sorted_keys
        pos = bisect_left(index, prefix)
        while pos < len(index):
            key = index[pos]
            if not key.startswith(prefix):
                break
            yield key
            pos += 1

    # -- commit path -------------------------------------------------------

    def validate_read_set(self, read_set: ReadSet) -> bool:
        """True iff every read version still matches committed state."""
        return all(self.version(key) == version for key, version in read_set.items())

    def apply_write_set(self, write_set: WriteSet) -> int:
        """Apply writes under a fresh commit sequence; returns it."""
        self._commit_seq += 1
        for key, value in write_set.items():
            if value is None:
                if self._store.pop(key, None) is not None:
                    pos = bisect_left(self._sorted_keys, key)
                    if pos < len(self._sorted_keys) and self._sorted_keys[pos] == key:
                        del self._sorted_keys[pos]
            else:
                if key not in self._store:
                    insort(self._sorted_keys, key)
                self._store[key] = VersionedValue(value=_isolate(value), version=self._commit_seq)
        return self._commit_seq

    def snapshot(self, earlier: WriteSet | None = None) -> "StateSnapshot":
        """Open a read-your-writes view for simulated execution — for a
        group member, over the writes of the members before it."""
        return StateSnapshot(self, earlier)

    # -- persistence -------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """JSON-ready full dump: commit sequence + sorted (key, value,
        version) entries.  The inverse of :meth:`from_dump`; values are
        isolated on the way back in, so a dump is safe to serialize,
        stash, and restore without aliasing committed state."""
        return {
            "commit_seq": self._commit_seq,
            "entries": [
                [key, entry.value, entry.version]
                for key, entry in sorted(self._store.items())
            ],
        }

    @classmethod
    def from_dump(cls, dumped: dict[str, Any]) -> "WorldState":
        """Rebuild a world state from :meth:`dump` output (snapshot
        recovery).  Restores values, MVCC versions, *and* the commit
        sequence, so post-recovery commits continue the same version
        numbering an uninterrupted run would have used — required for
        ``state_digest()`` convergence with peers that never crashed."""
        state = cls()
        state._commit_seq = int(dumped["commit_seq"])
        for key, value, version in dumped["entries"]:
            state._store[key] = VersionedValue(value=_isolate(value), version=int(version))
        state._sorted_keys = sorted(state._store)
        return state

    def state_digest(self) -> str:
        """Deterministic digest of the full committed state.

        The app-hash analogue: two peers that executed the same block
        sequence produce the same digest, so convergence checks can
        compare one string instead of walking both stores.  Versions are
        included — state that *looks* equal but was written by different
        commit schedules is a consensus bug worth catching.
        """
        from repro.crypto.hashing import hash_json

        return hash_json(
            [(key, entry.value, entry.version) for key, entry in sorted(self._store.items())]
        )


class StateSnapshot:
    """Execution view: records reads, buffers writes.

    Reads hit the buffered writes first (read-your-writes within one
    transaction), then committed state, recording the committed version
    so MVCC validation can detect staleness later.  *earlier* holds what
    the preceding members of a group wrote: it is read like the buffer
    and, like the buffer, never enters the read set — the group commits
    as one, so only what it read from outside itself can go stale.
    """

    def __init__(self, base: WorldState, earlier: WriteSet | None = None):
        self._base = base
        self._earlier: WriteSet = earlier or {}
        self.read_set: ReadSet = {}
        self.write_buffer: WriteSet = {}

    def get(self, key: str) -> Any:
        if key in self.write_buffer:
            value = self.write_buffer[key]
        elif key in self._earlier:
            value = self._earlier[key]
        else:
            self.read_set.setdefault(key, self._base.version(key))
            return self._base.get(key)
        return _isolate(value) if value is not None else None

    def put(self, key: str, value: Any) -> None:
        if value is None:
            raise ValueError("use delete() to remove a key; None is the deletion marker")
        self.write_buffer[key] = _isolate(value)

    def delete(self, key: str) -> None:
        self.write_buffer[key] = None

    def keys_with_prefix(self, prefix: str) -> list[str]:
        """Prefix scan merged across committed state and buffered writes.

        Every committed key returned is also recorded in the read set, so
        a concurrent insert/delete under the prefix invalidates us only
        if it touches keys we actually observed — matching Fabric's
        behaviour for range queries.
        """
        committed = list(self._base.keys_with_prefix(prefix))
        for key in committed:
            self.read_set.setdefault(key, self._base.version(key))
        merged = set(committed)
        for written in (self._earlier, self.write_buffer):
            for key, value in written.items():
                if key.startswith(prefix):
                    if value is None:
                        merged.discard(key)
                    else:
                        merged.add(key)
        return sorted(merged)
