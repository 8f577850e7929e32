"""A contract refuses a mistyped argument instead of misreading it.

``bool("false")`` is ``True``, a string weight fails a range comparison
with ``TypeError``, and an ``int`` id has no ``startswith``: every such
call must end as a :class:`~repro.errors.ContractError` (a failed
simulation) and commit nothing.  The check is each entry point's
annotations, read once per class (``Contract.dispatch``).
"""

import pytest

from repro.chain import Contract, ContractRegistry, LocalChain, contract_method
from repro.chain.state import WorldState
from repro.core import (
    ConductContract,
    FactualDatabaseContract,
    IdentityContract,
    MediaRegistryContract,
    NewsRoomContract,
    PlatformGovernanceContract,
    SupplyChainContract,
    TokenContract,
    ToolMarketContract,
    VoteContract,
)
from repro.core.platform import LedgerView
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
_DRAFT = {"article_id": "d-1", "platform_name": "wire", "room_name": "desk",
          "content_hash": "h-d-1"}
_PETITION = {"platform_name": "wire", "charter": "local news", "quorum": 3}
_MEDIA = {"media_id": "m-1", "block_size": 64, "block_hashes": ["b"], "block_means": [0.0],
          "block_stds": [1.0], "description": "clip"}

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
    # Entry points whose bodies check no type: without the annotation
    # check each of these commits, or escapes ``invoke`` as a raw ``TypeError``.
    ("newsroom", "create_platform", "platform_name", 5),
    ("newsroom", "submit_draft", "article_id", ["x"]),
    ("newsroom", "comment", "comment_id", 5),
    ("governance", "petition", "quorum", "3"),
    ("governance", "petition", "quorum", True),
    ("governance", "review", "approve", "false"),
    ("conduct", "adjudicate", "upheld", "false"),
    ("conduct", "file_report", "stake", "1"),
    ("token", "transfer", "amount", 1.5),
    ("token", "transfer", "amount", True),
    ("media", "record_assessment", "tamper_score", "0.1"),
    # A fingerprint is four arguments, so each field is checked: every
    # reader rebuilds it from the committed record.
    ("media", "register", "block_size", "64"),
    ("media", "register", "block_size", 64.0),
    ("media", "register", "block_hashes", "b"),
    ("media", "register", "block_hashes", {"block_hashes": ["b"]}),
    ("media", "register", "block_means", ["0.0"]),
    ("media", "register", "block_stds", [None]),
    ("toolmarket", "register_tool", "fee", "0.5"),
    ("identity", "register", "display_name", 5),
]


@pytest.fixture
def chain():
    chain = LocalChain(seed=4)
    for contract in (IdentityContract(), SupplyChainContract(), VoteContract(),
                     FactualDatabaseContract(), NewsRoomContract(), PlatformGovernanceContract(),
                     ConductContract(), TokenContract(), MediaRegistryContract(),
                     ToolMarketContract()):
        chain.install_contract(contract)
    return chain


def _member(chain, verifier, role):
    """A new identity of *role*, verified by *verifier*."""
    member = chain.new_account()
    chain.invoke(member, "identity", "register", {"display_name": role, "role": role})
    chain.invoke(verifier, "identity", "verify", {"address": member.address})
    return member


def _prepare(chain, account, contract, method):
    """Commit what *method*'s well-typed call needs; its caller and arguments."""
    if method == "promote":
        chain.invoke(account, "supplychain", "record_ranking", _RANKING)
    if method in ("submit_draft", "comment"):
        chain.invoke(account, "newsroom", "create_platform", {"platform_name": "wire"})
        chain.invoke(account, "newsroom", "create_room",
                     {"platform_name": "wire", "room_name": "desk", "topic": "politics"})
    if method == "comment":
        chain.invoke(account, "newsroom", "submit_draft", _DRAFT)
        chain.invoke(account, "newsroom", "start_review", {"article_id": "d-1"})
        chain.invoke(account, "newsroom", "publish", {"article_id": "d-1"})
        return account, {"article_id": "d-1", "comment_id": "c-1", "content_hash": "h-c-1"}
    if method == "review":
        chain.invoke(account, "governance", "petition", _PETITION)
        return _member(chain, account, "checker"), {"platform_name": "wire", "approve": False}
    if method in ("file_report", "adjudicate"):
        other = _member(chain, account, "consumer")
        report = {"report_id": "r-1", "accused": other.address, "article_id": "a-1",
                  "category": "spam", "stake": 1.0}
        if method == "file_report":
            return account, report
        chain.invoke(other, "conduct", "file_report", {**report, "accused": account.address})
        return account, {"report_id": "r-1", "upheld": False}
    if method == "transfer":
        chain.invoke(account, "token", "mint", {"to": account.address, "amount": 10})
        return account, {"to": "someone", "amount": 1}
    if method == "record_assessment":
        chain.invoke(account, "media", "register", _MEDIA)
        return account, {"media_id": "m-1", "article_id": "a-1", "tamper_score": 0.1}
    if method == "register_tool":
        return _member(chain, account, "developer"), {
            "tool_id": "t-1", "description": "scorer", "fee": 0.5, "stake": 10.0}
    if (contract, method) == ("identity", "register"):
        return chain.new_account(), {"display_name": "bob", "role": "consumer"}
    return account, {"cast": _VOTE, "record_node": _NODE, "record_ranking": _RANKING,
                     "seed_fact": _FACT, "promote": _PROMOTION, "create_platform":
                     {"platform_name": "wire"}, "submit_draft": _DRAFT,
                     "petition": _PETITION, "register": _MEDIA}[method]


@pytest.mark.parametrize("contract,method,name,value", _MALFORMED)
def test_a_mistyped_argument_is_a_contract_error(chain, contract, method, name, value):
    account = chain.new_account()
    chain.invoke(account, "identity", "register", {"display_name": "alice", "role": "journalist"})
    chain.invoke(account, "identity", "verify", {"address": account.address})  # rankers are verified
    chain.invoke(account, "supplychain", "record_node", {**_NODE, "article_id": "a-1", "parents": []})
    caller, well_typed = _prepare(chain, account, contract, method)
    height, digest = chain.ledger.height, chain.state.state_digest()
    with pytest.raises(ContractError):
        chain.invoke(caller, contract, method, {**well_typed, name: value})
    assert (chain.ledger.height, chain.state.state_digest()) == (height, digest)
    # The well-typed call goes through: the refusal was the type.
    assert chain.invoke(caller, contract, method, well_typed).success


def test_the_kind_is_named_in_the_refusal(chain):
    account = chain.new_account()
    with pytest.raises(ContractError, match="^display_name must be a string$"):
        chain.invoke(account, "identity", "register", {"display_name": 5, "role": "consumer"})
    with pytest.raises(ContractError, match="^parents must be a list of strings or None$"):
        chain.invoke(account, "supplychain", "record_node", {**_NODE, "parents": [1]})
    with pytest.raises(ContractError, match="^bad arguments for identity.register: "):
        chain.invoke(account, "identity", "register", {"display_name": "bob"})


def test_an_unannotated_argument_is_refused_when_the_class_is_defined():
    with pytest.raises(TypeError, match="'amount'"):
        class Unannotated(Contract):
            name = "unannotated"

            @contract_method
            def deposit(self, ctx, account: str, amount):
                return amount


@pytest.mark.parametrize("annotation", [tuple, dict, set[str], list[list[str]], "int | str",
                                        "object"])
def test_an_annotation_outside_the_six_forms_is_refused_when_the_class_is_defined(annotation):
    def deposit(self, ctx, amount):
        return amount

    deposit.__annotations__ = {"amount": annotation}
    with pytest.raises(TypeError, match="'amount'"):
        type("Odd", (Contract,), {"name": "odd", "deposit": contract_method(deposit)})


def test_a_type_error_inside_a_body_still_propagates():
    """The argument check runs before the body, so a ``TypeError`` the body
    raises on well-typed arguments is a bug, not a refusal."""

    class Broken(Contract):
        name = "broken"

        @contract_method
        def count(self, ctx, amount: int):
            return len(amount)

    registry = ContractRegistry()
    registry.install(Broken())
    with pytest.raises(TypeError, match="has no len"):
        registry.execute(WorldState(), "broken", "count", {"amount": 3}, caller="a",
                         timestamp=0.0, tx_id="t")


# -- through the platform: a refused argument never reaches a reader ----------


@pytest.fixture
def newsroom(platform):
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.register_participant("jane", role="journalist")
    platform.authenticate_journalist("acme-news", "jane")
    return platform


def test_a_list_article_id_draft_leaves_every_reader_answering(newsroom):
    """A committed list id used to make every later fold raise
    ``unhashable type: 'list'`` on every peer, for good."""
    chain = newsroom.chain
    height, digest = chain.ledger.height, chain.state.state_digest()
    with pytest.raises(ContractError, match="article_id must be a string"):
        chain.invoke(newsroom.account("jane"), "newsroom", "submit_draft",
                     {"article_id": ["x"], "platform_name": "acme-news", "room_name": "desk",
                      "content_hash": "h"})
    assert (chain.ledger.height, chain.state.state_digest()) == (height, digest)
    assert newsroom.rank_room("acme-news", "desk") == []
    assert LedgerView().follow(chain.ledger).height == height
    newsroom.publish_article("jane", "acme-news", "desk", "a-1", "the council met today", "politics")
    assert [ranked.article_id for ranked in newsroom.rank_room("acme-news", "desk")] == ["a-1"]


def test_a_list_comment_id_after_a_string_one_is_refused(newsroom):
    newsroom.publish_article("jane", "acme-news", "desk", "a-1", "the council met today", "politics")
    jane = newsroom.account("jane")
    chain = newsroom.chain
    chain.invoke(jane, "newsroom", "comment",
                 {"article_id": "a-1", "comment_id": "c-1", "content_hash": "h"})
    with pytest.raises(ContractError, match="comment_id must be a string"):
        chain.invoke(jane, "newsroom", "comment",
                     {"article_id": "a-1", "comment_id": ["c-2"], "content_hash": "h"})
    assert [c["comment_id"] for c in newsroom.export_audit("a-1")["comments"]] == ["c-1"]
    assert [c["comment_id"] for c in LedgerView().follow(chain.ledger).comments["a-1"]] == ["c-1"]


def test_a_string_false_review_is_no_approval(newsroom):
    """``bool("false")`` is ``True``: three such reviews used to charter."""
    for index in range(3):
        newsroom.register_participant(f"checker-{index}", role="checker")
    newsroom.petition_platform("acme", "new-wire", "local news", quorum=3)
    for index in range(3):
        with pytest.raises(ContractError, match="approve must be a bool"):
            newsroom.review_petition(f"checker-{index}", "new-wire", "false")
    with pytest.raises(ContractError, match="quorum not yet reached"):
        newsroom.finalize_petition("new-wire")
    assert not newsroom.is_chartered("new-wire")
