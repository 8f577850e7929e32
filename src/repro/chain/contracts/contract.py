"""Contract base class, method dispatch, and the contract registry.

A contract is a Python class deriving from :class:`Contract` whose
invocable entry points are marked with :func:`contract_method`.  Only
marked methods are reachable from transactions — everything else is a
private helper — so a malformed method name can never call into, say,
``__init__``.  An entry point's annotations are its argument check:
:meth:`Contract.dispatch` refuses an unknown, missing or mistyped
argument before the body runs, so a body reads only values of the kinds
it declares.

The :class:`ContractRegistry` maps contract names to instances and runs
invocations end-to-end: open snapshot, build context, dispatch, convert
outcomes into an :class:`ExecutionResult`.
"""

from __future__ import annotations

import inspect
import types
import typing
from typing import Any, Callable, Sequence

from repro.chain.contracts.runtime import ContractContext, ExecutionResult, GasSchedule
from repro.chain.state import WorldState
from repro.errors import ContractError, OutOfGasError

__all__ = ["Contract", "contract_method", "ContractRegistry"]

_MARKER = "_is_contract_method"

#: The scalar kinds an entry-point argument may be annotated with:
#: (check, what a value must be, the plural ``list[...]`` names).
#: ``float`` takes an ``int`` too; neither number kind takes a ``bool``.
_KINDS: dict[type, tuple[Callable[[Any], bool], str, str]] = {
    str: (lambda value: isinstance(value, str), "a string", "strings"),
    bool: (lambda value: isinstance(value, bool), "a bool", "bools"),
    int: (lambda value: isinstance(value, int) and not isinstance(value, bool),
          "an integer", "integers"),
    float: (lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
            "a number", "numbers"),
}

#: One argument of an entry point: (check, kind, required).
_Argument = tuple[Callable[[Any], bool], str, bool]


def _declared(annotation: Any) -> tuple[Callable[[Any], bool], str] | None:
    """The check and kind an annotation declares, or ``None`` when it is
    not one of the six forms: a kind of :data:`_KINDS`, ``list[K]`` of
    one, or either of those ``| None``."""
    if annotation in _KINDS:
        check, kind, _ = _KINDS[annotation]
        return check, kind
    origin, members = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is list and len(members) == 1 and members[0] in _KINDS:
        item, _, plural = _KINDS[members[0]]
        return (lambda value: isinstance(value, list) and all(map(item, value))), f"a list of {plural}"
    if origin in (types.UnionType, typing.Union) and len(members) == 2 and type(None) in members:
        inner = _declared(members[1] if members[0] is type(None) else members[0])
        if inner is not None:
            check, kind = inner
            return (lambda value: value is None or check(value)), f"{kind} or None"
    return None


def _arguments(where: str, func: Callable) -> dict[str, _Argument]:
    """The argument table of an entry point: every parameter after
    ``self`` and ``ctx``, which must be annotated with one of the six
    forms :func:`_declared` reads."""
    table: dict[str, _Argument] = {}
    for param in list(inspect.signature(func, eval_str=True).parameters.values())[2:]:
        declared = _declared(param.annotation)
        if declared is None or param.kind not in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            raise TypeError(
                f"{where}: argument {param.name!r} must be a named parameter annotated "
                "str, bool, int, float, list[T] or T | None"
            )
        table[param.name] = (*declared, param.default is param.empty)
    return table


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

    Every argument after ``ctx`` is annotated with one of six forms —
    ``str``, ``bool``, ``int``, ``float``, ``list[T]`` of one of those
    four, or either of those ``| None`` — and that annotation is the
    argument's type check; any other annotation, or none, is a
    ``TypeError`` when the class is defined.  A structured value is
    several arguments, one per field, so every field is checked.
    """

    name: str = ""

    #: Each ``@contract_method`` entry point of this class (inherited ones
    #: included) by name, with its argument table, built once when the
    #: class is defined.
    _entry_points: dict[str, dict[str, _Argument]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.name:
            raise TypeError(f"{cls.__name__} must define a non-empty contract name")
        cls._entry_points = {
            attr_name: _arguments(f"{cls.__name__}.{attr_name}", member)
            for attr_name, member in inspect.getmembers(cls, predicate=inspect.isfunction)
            if getattr(member, _MARKER, False)
        }

    def invocable_methods(self) -> dict[str, Callable]:
        return {attr_name: getattr(self, attr_name) for attr_name in sorted(self._entry_points)}

    def dispatch(self, ctx: ContractContext, method: str, args: dict[str, Any]) -> Any:
        """Run an entry point once *args* match its argument table: every
        name known, every required one given, every value of its kind."""
        table = self._entry_points.get(method)
        if table is None:
            raise ContractError(f"contract {self.name!r} has no method {method!r}")
        unknown = [name for name in args if name not in table]
        missing = [name for name, (_, _, required) in table.items() if required and name not in args]
        if unknown or missing:
            raise ContractError(
                f"bad arguments for {self.name}.{method}: unknown {unknown}, missing {missing}"
            )
        for name, value in args.items():
            check, kind, _ = table[name]
            if not check(value):
                raise ContractError(f"{name} must be {kind}")
        return getattr(self, method)(ctx, **args)


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
