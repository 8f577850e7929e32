"""The public read surfaces hand out copies of committed transaction data.

The peers of one network hold the same transaction objects, and a
transaction's ``args``, ``return_value`` and event dicts are frozen by
contract, not by type (DESIGN.md §6).  A receipt, an event from
``Ledger.events`` and an explorer record are therefore structural copies:
editing one must leave the ledger — and every later read of it — as it
was committed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain import LocalChain, describe_transaction
from repro.core import IdentityContract, SupplyChainContract, build_supply_chain_graph


@pytest.fixture
def chain():
    c = LocalChain(seed=5)
    c.install_contract(IdentityContract())
    c.install_contract(SupplyChainContract())
    return c


def _register(chain, name):
    account = chain.new_account()
    chain.invoke(account, "identity", "register", {"display_name": name, "role": "creator"})
    return account


def _record(chain, account, article_id, parents=()):
    return chain.invoke(
        account, "supplychain", "record_node",
        {"article_id": article_id, "content_hash": "h-" + article_id,
         "parents": list(parents), "modification_degree": 0.2,
         "topic": "politics", "op": "publish"},
    )


def test_receipt_events_and_return_value_are_copies(chain):
    alice = _register(chain, "alice")
    receipt = _record(chain, alice, "a-1")
    receipt.events[0]["kind"] = "forged"
    receipt.return_value["author"] = "mallory"

    again = chain.ledger.receipt(receipt.tx_id)
    assert again.events[0]["kind"] == "supply-node-recorded"
    assert again.return_value["author"] == alice.address
    assert [e["kind"] for e in chain.ledger.events(contract="supplychain")] == [
        "supply-node-recorded"]
    tx = chain.ledger.get_transaction(receipt.tx_id).transaction
    assert tx.events[0]["kind"] == "supply-node-recorded"


def test_yielded_events_share_nothing_with_the_ledger(chain):
    alice = _register(chain, "alice")
    _record(chain, alice, "a-1")
    _record(chain, alice, "a-2", parents=["a-1"])
    before = build_supply_chain_graph(chain.ledger)

    for event in chain.ledger.events(kind="supply-node-recorded"):
        event["parents"].append("ghost")
        event["parent_degrees"].append(0.0)

    after = build_supply_chain_graph(chain.ledger)
    assert "ghost" not in after
    assert list(after.edges(data=True)) == list(before.edges(data=True))
    assert chain.ledger.verify_chain()


def test_explorer_record_is_a_copy(chain):
    alice = chain.new_account()
    receipt = chain.invoke(alice, "identity", "register",
                           {"display_name": "alice", "role": "creator"})
    described = describe_transaction(chain.ledger, receipt.tx_id)
    described["args"]["display_name"] = "MUTATED"
    described["return_value"]["role"] = "MUTATED"

    tx = chain.ledger.get_transaction(receipt.tx_id).transaction
    assert tx.args["display_name"] == "alice"
    assert tx.return_value["role"] == "creator"
    assert describe_transaction(chain.ledger, receipt.tx_id)["args"]["display_name"] == "alice"
    # A copy that derives its signing payload afresh still verifies: the
    # committed args are the ones that were signed.
    assert dataclasses.replace(tx).verify_signature()
