"""Deterministic smart-contract runtime with gas metering.

Contracts are Python classes (see :mod:`repro.chain.contracts.contract`)
whose methods execute against a :class:`ContractContext`.  The context is
the *only* door to state: every read/write is metered and recorded into
the transaction's read/write sets, which is what makes Fabric-style MVCC
validation and the paper's full auditability possible.

Determinism rules enforced by construction: contracts get no clock other
than ``ctx.timestamp`` (the transaction's), no randomness, and no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain.state import StateSnapshot
from repro.errors import ContractError, OutOfGasError

__all__ = ["GasSchedule", "ContractContext", "ExecutionResult"]


@dataclass(frozen=True)
class GasSchedule:
    """Cost table for metered operations."""

    base: int = 100
    read: int = 10
    write: int = 50
    delete: int = 30
    event: int = 5
    per_byte: int = 1

    @staticmethod
    def size_of(value: Any) -> int:
        """Rough byte-size estimate used for per-byte charging."""
        return len(repr(value))


@dataclass
class ExecutionResult:
    """Everything one simulated execution produced."""

    success: bool
    return_value: Any = None
    error: str | None = None
    gas_used: int = 0
    read_set: dict[str, int] = field(default_factory=dict)
    write_set: dict[str, Any] = field(default_factory=dict)
    events: tuple[dict[str, Any], ...] = ()


class ContractContext:
    """The API surface contracts program against."""

    def __init__(
        self,
        snapshot: StateSnapshot,
        caller: str,
        timestamp: float,
        tx_id: str,
        gas_limit: int = 10_000_000,
        schedule: GasSchedule | None = None,
    ):
        self._snapshot = snapshot
        self.caller = caller
        self.timestamp = timestamp
        self.tx_id = tx_id
        self.gas_limit = gas_limit
        self.gas_used = 0
        self._schedule = schedule or GasSchedule()
        self._events: list[dict[str, Any]] = []
        self._charge(self._schedule.base)

    # -- gas ----------------------------------------------------------------

    def _charge(self, amount: int) -> None:
        self.gas_used += amount
        if self.gas_used > self.gas_limit:
            raise OutOfGasError(
                f"gas limit {self.gas_limit} exceeded (used {self.gas_used})"
            )

    # -- state --------------------------------------------------------------

    def get(self, key: str) -> Any:
        """Read a key (None if absent); charged per byte returned."""
        value = self._snapshot.get(key)
        self._charge(self._schedule.read + self._schedule.per_byte * self._schedule.size_of(value))
        return value

    def put(self, key: str, value: Any) -> None:
        """Write a key; charged per byte stored."""
        self._charge(self._schedule.write + self._schedule.per_byte * self._schedule.size_of(value))
        self._snapshot.put(key, value)

    def delete(self, key: str) -> None:
        self._charge(self._schedule.delete)
        self._snapshot.delete(key)

    def keys_with_prefix(self, prefix: str) -> list[str]:
        """Range scan; charged per key returned."""
        keys = self._snapshot.keys_with_prefix(prefix)
        self._charge(self._schedule.read * max(1, len(keys)))
        return keys

    def require(self, condition: bool, message: str) -> None:
        """Abort the transaction unless *condition* holds."""
        if not condition:
            raise ContractError(message)

    def emit(self, kind: str, **fields: Any) -> None:
        """Emit an event into the transaction record (ledger-queryable)."""
        self._charge(self._schedule.event + self._schedule.per_byte * self._schedule.size_of(fields))
        event = {"kind": kind}
        event.update(fields)
        self._events.append(event)

    @property
    def events(self) -> tuple[dict[str, Any], ...]:
        return tuple(self._events)
