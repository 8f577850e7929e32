"""Contract runtime: dispatch, gas, events, registry, endorsement policy."""

import random

import pytest

from repro.chain import Contract, ContractRegistry, EndorsementPolicy, contract_method
from repro.chain.contracts import check_endorsements
from repro.chain.contracts.runtime import GasSchedule
from repro.chain.state import WorldState
from repro.chain.transaction import Endorsement, Transaction, endorsed_digest
from repro.crypto import KeyPair
from repro.errors import ContractError, EndorsementError


class Bank(Contract):
    name = "bank"

    @contract_method
    def deposit(self, ctx, account: str, amount: int):
        ctx.require(amount > 0, "amount must be positive")
        balance = (ctx.get(f"bal:{account}") or 0) + amount
        ctx.put(f"bal:{account}", balance)
        ctx.emit("deposited", account=account, amount=amount)
        return balance

    @contract_method
    def balances(self, ctx):
        return {k: ctx.get(k) for k in ctx.keys_with_prefix("bal:")}

    def _secret_helper(self, ctx):  # not invocable
        return "secret"


@pytest.fixture
def registry():
    r = ContractRegistry()
    r.install(Bank())
    return r


@pytest.fixture
def state():
    return WorldState()


def _execute(registry, state, method, args, gas_limit=10_000_000):
    return registry.execute(state, "bank", method, args, caller="alice", timestamp=0.0,
                            tx_id="t", gas_limit=gas_limit)


def test_successful_execution_returns_rwsets(registry, state):
    result = _execute(registry, state, "deposit", {"account": "a", "amount": 5})
    assert result.success and result.return_value == 5
    assert result.write_set == {"bal:a": 5}
    assert "bal:a" in result.read_set
    assert result.events[0]["kind"] == "deposited"
    assert result.gas_used > 0


def test_execution_does_not_mutate_state(registry, state):
    _execute(registry, state, "deposit", {"account": "a", "amount": 5})
    assert state.get("bal:a") is None


def test_require_failure_returns_error(registry, state):
    result = _execute(registry, state, "deposit", {"account": "a", "amount": -1})
    assert not result.success
    assert "positive" in result.error
    assert result.write_set == {}
    assert result.events == ()


def test_unknown_method_fails(registry, state):
    result = _execute(registry, state, "withdraw", {})
    assert not result.success and "no method" in result.error


def test_private_helper_not_invocable(registry, state):
    result = _execute(registry, state, "_secret_helper", {})
    assert not result.success


def test_bad_arguments_fail_cleanly(registry, state):
    result = _execute(registry, state, "deposit", {"account": "a", "bogus": 1})
    assert not result.success and "bad arguments" in result.error


def test_dispatch_errors_keep_their_text(registry, state):
    assert _execute(registry, state, "withdraw", {}).error == "contract 'bank' has no method 'withdraw'"
    assert _execute(registry, state, "deposit", {"account": "a", "bogus": 1}).error.startswith(
        "bad arguments for bank.deposit: ")


def test_method_table_is_built_once_per_class(state, monkeypatch):
    """``dispatch`` used to run ``inspect.getmembers`` over the instance
    on every invocation and every query."""
    import inspect
    import types

    import repro.chain.contracts.contract as contract_module

    scans = []

    def counting_getmembers(*args, **kwargs):
        scans.append(1)
        return inspect.getmembers(*args, **kwargs)

    monkeypatch.setattr(contract_module, "inspect", types.SimpleNamespace(
        getmembers=counting_getmembers, isfunction=inspect.isfunction,
        signature=inspect.signature))

    class Savings(Bank):
        name = "savings"

        @contract_method
        def interest(self, ctx, rate: int):
            return rate

        def balances(self, ctx):  # overrides an entry point without marking it
            return {}

    assert sum(scans) == 1
    savings = Savings()
    methods = savings.invocable_methods()
    assert list(methods) == ["deposit", "interest"]  # inherited + own, sorted, override dropped
    assert methods["deposit"] == savings.deposit
    registry = ContractRegistry()
    registry.install(savings)
    for _ in range(3):
        result = registry.execute(state, "savings", "interest", {"rate": 2}, caller="a",
                                  timestamp=0.0, tx_id="t")
        assert result.success and result.return_value == 2
    assert not registry.execute(state, "savings", "balances", {}, caller="a",
                                timestamp=0.0, tx_id="t").success
    assert sum(scans) == 1


def test_unknown_contract_fails(registry, state):
    result = registry.execute(state, "nope", "m", {}, caller="a", timestamp=0.0, tx_id="t")
    assert not result.success


def test_out_of_gas(registry, state):
    result = _execute(registry, state, "deposit", {"account": "a", "amount": 5}, gas_limit=101)
    assert not result.success and "gas" in result.error.lower()


def test_gas_scales_with_value_size(registry, state):
    small = _execute(registry, state, "deposit", {"account": "a", "amount": 1})
    big = _execute(registry, state, "deposit", {"account": "a" * 500, "amount": 1})
    assert big.gas_used > small.gas_used


def test_prefix_scan_method(registry, state):
    state.apply_write_set({"bal:a": 1, "bal:b": 2})
    result = _execute(registry, state, "balances", {})
    assert result.return_value == {"bal:a": 1, "bal:b": 2}


def test_duplicate_install_rejected(registry):
    with pytest.raises(ContractError):
        registry.install(Bank())


def test_contract_must_declare_name():
    with pytest.raises(TypeError):
        class Nameless(Contract):  # noqa: F811
            pass


def test_registry_names(registry):
    assert registry.names() == ["bank"]
    assert "bank" in registry


# -- endorsement policies -----------------------------------------------------


#: The endorsing peers' keys, by peer id: what a committing peer's
#: directory holds.
_PEER_KEYS = [KeyPair.generate(random.Random(100 + index)) for index in range(2)]
DIRECTORY = {f"peer-{index}": key.public_key for index, key in enumerate(_PEER_KEYS)}


def _endorsed_tx(n_endorsers=2, digest_override=None):
    client = KeyPair.generate(random.Random(0))
    tx = Transaction.create(client, "bank", "deposit", {"account": "a", "amount": 1})
    tx = tx.with_execution({"bal:a": -1}, {"bal:a": 1}, (), 1, ())
    endorsements = []
    for index in range(n_endorsers):
        peer_key = _PEER_KEYS[index]
        digest = digest_override or tx.endorsed_digest
        endorsements.append(Endorsement.create(peer_key, f"peer-{index}", tx.tx_id, digest))
    import dataclasses

    return dataclasses.replace(tx, endorsements=tuple(endorsements))


def test_policy_satisfied():
    tx = _endorsed_tx(2)
    check_endorsements(tx, EndorsementPolicy(required=2), DIRECTORY)


def test_policy_insufficient_endorsements():
    tx = _endorsed_tx(1)
    with pytest.raises(EndorsementError):
        check_endorsements(tx, EndorsementPolicy(required=2), DIRECTORY)


def test_policy_divergent_digest_rejected():
    tx = _endorsed_tx(1, digest_override=endorsed_digest({"x": 0}, {}, (), 1))
    with pytest.raises(EndorsementError):
        check_endorsements(tx, EndorsementPolicy(required=1), DIRECTORY)


def test_policy_restricts_endorser_set():
    tx = _endorsed_tx(2)  # endorsers peer-0, peer-1
    policy = EndorsementPolicy(required=1, endorsers=("peer-9",))
    with pytest.raises(EndorsementError):
        check_endorsements(tx, policy, DIRECTORY)


def test_policy_duplicate_endorser_counted_once():
    import dataclasses

    tx = _endorsed_tx(1)
    doubled = dataclasses.replace(tx, endorsements=tx.endorsements * 2)
    with pytest.raises(EndorsementError):
        check_endorsements(doubled, EndorsementPolicy(required=2), DIRECTORY)


def test_policy_validation():
    with pytest.raises(EndorsementError):
        EndorsementPolicy(required=0)
    with pytest.raises(EndorsementError):
        EndorsementPolicy(required=3, endorsers=("a", "b"))


def test_gas_schedule_size_of():
    assert GasSchedule.size_of("abc") == len(repr("abc"))
