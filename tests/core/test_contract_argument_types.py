"""A contract refuses a mistyped argument instead of misreading it.

``bool("false")`` is ``True``, a string weight fails a range comparison
with ``TypeError``, and an ``int`` id has no ``startswith``: every such
call must end as a :class:`~repro.errors.ContractError` (a failed
simulation) and commit nothing.
"""

import pytest

from repro.chain import LocalChain
from repro.core import (
    FactualDatabaseContract,
    IdentityContract,
    SupplyChainContract,
    VoteContract,
)
from repro.core.supplychain import MAX_TEXT_LENGTH
from repro.errors import ContractError

_NODE = {
    "article_id": "a-2", "content_hash": "h-a-2", "parents": ["a-1"],
    "modification_degree": 0.0, "topic": "politics", "op": "share",
}
_VOTE = {"article_id": "a-1", "verdict": False, "weight": 0.5}
_RANKING = {
    "article_id": "a-1", "provenance_score": 1.0, "ai_score": 0.1,
    "crowd_score": None, "final_score": 0.8,
}
_FACT = {"fact_id": "f-1", "content_hash": "h-f-1", "source": "public-record",
         "topic": "politics", "text": "the council approved the budget"}
_PROMOTION = {"fact_id": "a-1-fact", "article_id": "a-1"}

#: (contract, method, argument, mistyped value): each replaces one
#: argument of the method's well-typed call.
_MALFORMED = [
    ("votes", "cast", "verdict", "false"),
    ("votes", "cast", "verdict", 0),
    ("votes", "cast", "weight", "0.5"),
    ("votes", "cast", "weight", True),
    ("votes", "cast", "article_id", 1),
    ("supplychain", "record_node", "modification_degree", "0.5"),
    ("supplychain", "record_node", "modification_degree", False),
    ("supplychain", "record_node", "article_id", 2),
    ("supplychain", "record_node", "parents", "a-1"),
    ("supplychain", "record_node", "parents", [1]),
    ("supplychain", "record_node", "fact_roots", [7]),
    ("supplychain", "record_node", "parent_degrees", ["0"]),
    ("supplychain", "record_node", "ai_score", "0.2"),
    ("supplychain", "record_node", "topic", None),
    ("supplychain", "record_ranking", "final_score", "0.8"),
    ("supplychain", "record_ranking", "ai_score", "low"),
    ("supplychain", "record_ranking", "article_id", 1),
    ("supplychain", "record_node", "text", 7),
    pytest.param("supplychain", "record_node", "text", "x" * (MAX_TEXT_LENGTH + 1),
                 id="supplychain-record_node-text-too-long"),
    # Every reader's provenance fold names a fact ``fact:<fact_id>``.
    ("factualdb", "seed_fact", "fact_id", 7),
    ("factualdb", "seed_fact", "topic", ["politics"]),
    pytest.param("factualdb", "seed_fact", "text", "x" * (MAX_TEXT_LENGTH + 1),
                 id="factualdb-seed_fact-text-too-long"),
    ("factualdb", "promote", "fact_id", 7),
    ("factualdb", "promote", "article_id", ["a-1"]),
]


@pytest.fixture
def chain():
    chain = LocalChain(seed=4)
    for contract in (IdentityContract(), SupplyChainContract(), VoteContract(),
                     FactualDatabaseContract()):
        chain.install_contract(contract)
    return chain


@pytest.mark.parametrize("contract,method,name,value", _MALFORMED)
def test_a_mistyped_argument_is_a_contract_error(chain, contract, method, name, value):
    well_typed = {"cast": _VOTE, "record_node": _NODE, "record_ranking": _RANKING,
                  "seed_fact": _FACT, "promote": _PROMOTION}[method]
    account = chain.new_account()
    chain.invoke(account, "identity", "register", {"display_name": "alice", "role": "creator"})
    chain.invoke(account, "identity", "verify", {"address": account.address})  # rankers are verified
    chain.invoke(account, "supplychain", "record_node", {**_NODE, "article_id": "a-1", "parents": []})
    if method == "promote":
        chain.invoke(account, "supplychain", "record_ranking", _RANKING)
    height, digest = chain.ledger.height, chain.state.state_digest()
    with pytest.raises(ContractError):
        chain.invoke(account, contract, method, {**well_typed, name: value})
    assert (chain.ledger.height, chain.state.state_digest()) == (height, digest)
    # The well-typed call goes through: the refusal was the type.
    assert chain.invoke(account, contract, method, well_typed).success
