"""LocalChain: the synchronous single-node pipeline."""

import pytest

from repro.chain import LocalChain
from repro.errors import ContractError


@pytest.fixture
def chain(counter_contract_cls):
    c = LocalChain(seed=3)
    c.install_contract(counter_contract_cls())
    return c


def test_invoke_commits_one_block(chain):
    alice = chain.new_account()
    receipt = chain.invoke(alice, "counter", "increment", {"amount": 4})
    assert receipt.success and receipt.return_value == 4
    assert chain.ledger.height == 1
    assert chain.query("counter", "read") == 4


def test_sequential_invokes_accumulate(chain):
    alice = chain.new_account()
    for expected in (1, 2, 3):
        receipt = chain.invoke(alice, "counter", "increment")
        assert receipt.return_value == expected
    assert chain.ledger.height == 3


def test_contract_abort_raises_and_commits_nothing(chain):
    alice = chain.new_account()
    with pytest.raises(ContractError, match="deliberate"):
        chain.invoke(alice, "counter", "fail")
    assert chain.ledger.height == 0
    assert chain.query("counter", "read") == 0


def test_query_does_not_commit(chain):
    chain.query("counter", "read")
    assert chain.ledger.height == 0


def test_events_reach_ledger(chain):
    alice = chain.new_account()
    chain.invoke(alice, "counter", "increment", {"amount": 7})
    events = list(chain.ledger.events(contract="counter", kind="incremented"))
    assert len(events) == 1
    assert events[0]["amount"] == 7
    assert events[0]["_sender"] == alice.address


def test_clock_advance(chain):
    assert chain.now == 0.0
    chain.advance_time(2.5)
    assert chain.now == 2.5
    with pytest.raises(ValueError):
        chain.advance_time(-1)


def test_ledger_audits_clean(chain):
    alice = chain.new_account()
    for _ in range(5):
        chain.invoke(alice, "counter", "increment")
    assert chain.ledger.verify_chain()


def test_deterministic_accounts():
    a = LocalChain(seed=9).new_account()
    b = LocalChain(seed=9).new_account()
    assert a.address == b.address
