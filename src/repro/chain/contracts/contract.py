"""Contract base class, method dispatch, and the contract registry.

A contract is a Python class deriving from :class:`Contract` whose
invocable entry points are marked with :func:`contract_method`.  Only
marked methods are reachable from transactions — everything else is a
private helper — so a malformed method name can never call into, say,
``__init__``.

The :class:`ContractRegistry` maps contract names to instances and runs
invocations end-to-end: open snapshot, build context, dispatch, convert
outcomes into an :class:`ExecutionResult`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Sequence

from repro.chain.contracts.runtime import ContractContext, ExecutionResult, GasSchedule
from repro.chain.state import WorldState
from repro.errors import ContractError, OutOfGasError

__all__ = ["Contract", "contract_method", "ContractRegistry"]

_MARKER = "_is_contract_method"


def contract_method(func: Callable) -> Callable:
    """Mark a :class:`Contract` method as invocable from transactions."""
    setattr(func, _MARKER, True)
    return func


class Contract:
    """Base class for smart contracts.

    Subclasses set ``name`` and define entry points like::

        class Counter(Contract):
            name = "counter"

            @contract_method
            def increment(self, ctx, amount: int = 1):
                value = (ctx.get("count") or 0) + amount
                ctx.put("count", value)
                return value
    """

    name: str = ""

    #: Names of this class's ``@contract_method`` entry points, found
    #: once when the class is defined (inherited ones included).
    _method_names: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.name:
            raise TypeError(f"{cls.__name__} must define a non-empty contract name")
        cls._method_names = frozenset(
            attr_name
            for attr_name, member in inspect.getmembers(cls, predicate=inspect.isfunction)
            if getattr(member, _MARKER, False)
        )

    def invocable_methods(self) -> dict[str, Callable]:
        return {attr_name: getattr(self, attr_name) for attr_name in sorted(self._method_names)}

    def dispatch(self, ctx: ContractContext, method: str, args: dict[str, Any]) -> Any:
        if method not in self._method_names:
            raise ContractError(f"contract {self.name!r} has no method {method!r}")
        entry = getattr(self, method)
        try:
            return entry(ctx, **args)
        except TypeError as exc:
            # Distinguish bad call signatures from TypeErrors raised inside
            # the method body: re-inspect the signature binding.
            try:
                inspect.signature(entry).bind(ctx, **args)
            except TypeError:
                raise ContractError(f"bad arguments for {self.name}.{method}: {exc}") from None
            raise


class ContractRegistry:
    """Installed contracts on one peer, plus the execution entry point."""

    def __init__(self, gas_schedule: GasSchedule | None = None):
        self._contracts: dict[str, Contract] = {}
        self.gas_schedule = gas_schedule or GasSchedule()

    def install(self, contract: Contract) -> None:
        if contract.name in self._contracts:
            raise ContractError(f"contract {contract.name!r} already installed")
        self._contracts[contract.name] = contract

    def get(self, name: str) -> Contract:
        contract = self._contracts.get(name)
        if contract is None:
            raise ContractError(f"contract {name!r} is not installed")
        return contract

    def __contains__(self, name: str) -> bool:
        return name in self._contracts

    def names(self) -> list[str]:
        return sorted(self._contracts)

    def execute(
        self,
        state: WorldState,
        contract_name: str,
        method: str,
        args: dict[str, Any],
        caller: str,
        timestamp: float,
        tx_id: str,
        gas_limit: int = 10_000_000,
        earlier: dict[str, Any] | None = None,
    ) -> ExecutionResult:
        """Simulate one invocation against *state* (state is not mutated),
        over the writes *earlier* members of its group made, if any.

        Contract aborts (:class:`ContractError`, :class:`OutOfGasError`)
        come back as failed results; anything else propagates, because an
        unexpected exception in a system contract is a bug in this
        library, not a user error.
        """
        snapshot = state.snapshot(earlier)
        ctx = ContractContext(
            snapshot,
            caller=caller,
            timestamp=timestamp,
            tx_id=tx_id,
            gas_limit=gas_limit,
            schedule=self.gas_schedule,
        )
        try:
            contract = self.get(contract_name)
            value = contract.dispatch(ctx, method, args)
        except (ContractError, OutOfGasError) as exc:
            return ExecutionResult(
                success=False,
                error=str(exc),
                gas_used=ctx.gas_used,
                read_set=dict(snapshot.read_set),
                events=(),
            )
        return ExecutionResult(
            success=True,
            return_value=value,
            gas_used=ctx.gas_used,
            read_set=dict(snapshot.read_set),
            write_set=dict(snapshot.write_buffer),
            events=ctx.events,
        )

    def execute_group(self, state: WorldState, txs: Sequence[Any]) -> list[ExecutionResult]:
        """Simulate the members of a group in order over one speculative
        state: each sees the writes of those before it.  Stops at the
        first abort, whose failed result is then the last one returned."""
        earlier: dict[str, Any] = {}
        results: list[ExecutionResult] = []
        for tx in txs:
            result = self.execute(
                state, tx.contract, tx.method, tx.args, caller=tx.sender,
                timestamp=tx.timestamp, tx_id=tx.tx_id, earlier=earlier,
            )
            results.append(result)
            if not result.success:
                break
            earlier.update(result.write_set)
        return results
