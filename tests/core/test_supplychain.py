"""Supply-chain recording, graph reconstruction, tracing, accountability."""

import networkx as nx
import pytest

from repro.chain import LocalChain
from repro.corpus import CorpusGenerator
from repro.core import (
    IdentityContract,
    SupplyChainContract,
    build_supply_chain_graph,
    find_original_author,
    trace_to_factual_root,
)
from repro.errors import ContractError


@pytest.fixture
def chain():
    c = LocalChain(seed=2)
    c.install_contract(IdentityContract())
    c.install_contract(SupplyChainContract())
    return c


def _register(chain, name):
    account = chain.new_account()
    chain.invoke(account, "identity", "register", {"display_name": name, "role": "creator"})
    return account


def _record(chain, account, article_id, parents=(), degree=0.0, fact_roots=(), op="publish"):
    return chain.invoke(
        account, "supplychain", "record_node",
        {"article_id": article_id, "content_hash": "h-" + article_id,
         "parents": list(parents), "modification_degree": degree,
         "topic": "politics", "op": op, "fact_roots": list(fact_roots)},
    )


def test_record_and_get(chain):
    alice = _register(chain, "alice")
    _record(chain, alice, "a-1", fact_roots=["f-1"])
    node = chain.query("supplychain", "get_node", {"article_id": "a-1"})
    assert node["author"] == alice.address
    assert node["fact_roots"] == ["f-1"]


def test_unregistered_cannot_record(chain):
    rogue = chain.new_account()
    with pytest.raises(ContractError, match="unregistered"):
        _record(chain, rogue, "a-1")


def test_parent_must_exist(chain):
    alice = _register(chain, "alice")
    with pytest.raises(ContractError, match="not recorded"):
        _record(chain, alice, "a-2", parents=["ghost"])


def test_degree_bounds_enforced(chain):
    alice = _register(chain, "alice")
    with pytest.raises(ContractError):
        _record(chain, alice, "a-1", degree=1.5)


def test_duplicate_article_rejected(chain):
    alice = _register(chain, "alice")
    _record(chain, alice, "a-1")
    with pytest.raises(ContractError, match="already recorded"):
        _record(chain, alice, "a-1")


@pytest.mark.parametrize("ids, degrees, repeated", [
    ("parents", "parent_degrees", ["p", "p"]),
    ("fact_roots", "fact_degrees", ["f", "f"]),
])
def test_a_record_names_each_parent_and_fact_root_once(chain, ids, degrees, repeated):
    """The graph keeps one edge per pair, so one id twice with two degrees
    would keep the last: in this order the copy would trace at 0.0 and
    hand accountability up to ``p``'s author, in the other at 0.9 and
    keep it with the recorder.  The contract refuses the repeat."""
    alice = _register(chain, "alice")
    _record(chain, alice, "p", fact_roots=["f"])
    args = {"article_id": "c", "content_hash": "h-c", "parents": [], "modification_degree": 0.0,
            "topic": "politics", "op": "relay", ids: repeated, degrees: [0.9, 0.0]}
    with pytest.raises(ContractError, match="more than once"):
        chain.invoke(alice, "supplychain", "record_node", args)
    assert chain.query("supplychain", "get_node", {"article_id": "c"}) is None
    args[ids], args[degrees] = repeated[:1], [0.9]
    chain.invoke(alice, "supplychain", "record_node", args)
    assert trace_to_factual_root(build_supply_chain_graph(chain.ledger), "c").traceable


@pytest.fixture
def lineage(chain):
    """fact:f-1 <- a-1 (relay, 0.0) <- a-2 (relay 0.0) <- a-3 (distort 0.6) <- a-4 (relay 0.0);
    plus untraceable u-1 <- u-2."""
    alice = _register(chain, "alice")
    bob = _register(chain, "bob")
    troll = _register(chain, "troll")
    relayer = _register(chain, "relayer")
    loner = _register(chain, "loner")
    _record(chain, alice, "a-1", degree=0.0, fact_roots=["f-1"])
    _record(chain, bob, "a-2", parents=["a-1"], degree=0.0, op="relay")
    _record(chain, troll, "a-3", parents=["a-2"], degree=0.6, op="distort")
    _record(chain, relayer, "a-4", parents=["a-3"], degree=0.0, op="relay")
    _record(chain, loner, "u-1", degree=1.0, op="fabricate")
    _record(chain, bob, "u-2", parents=["u-1"], degree=0.0, op="relay")
    return chain, {"alice": alice, "bob": bob, "troll": troll, "relayer": relayer, "loner": loner}


def test_graph_reconstruction(lineage):
    chain, accounts = lineage
    graph = build_supply_chain_graph(chain.ledger)
    assert graph.has_edge("a-2", "a-1")
    assert graph.has_edge("a-1", "fact:f-1")
    assert graph.nodes["fact:f-1"]["is_fact_root"]
    assert graph.nodes["a-3"]["modification_degree"] == 0.6
    assert graph.nodes["a-3"]["author"] == accounts["troll"].address


def test_trace_faithful_chain(lineage):
    chain, _ = lineage
    graph = build_supply_chain_graph(chain.ledger)
    trace = trace_to_factual_root(graph, "a-2")
    assert trace.traceable and trace.root == "fact:f-1"
    assert trace.cumulative_modification == pytest.approx(0.0)
    assert trace.provenance_score == pytest.approx(1.0)
    assert trace.path == ["a-2", "a-1", "fact:f-1"]


def test_trace_accumulates_modification(lineage):
    chain, _ = lineage
    graph = build_supply_chain_graph(chain.ledger)
    trace = trace_to_factual_root(graph, "a-4")
    assert trace.traceable
    assert trace.cumulative_modification == pytest.approx(0.6)
    assert trace.provenance_score == pytest.approx(0.4)


def test_untraceable_article(lineage):
    chain, _ = lineage
    graph = build_supply_chain_graph(chain.ledger)
    trace = trace_to_factual_root(graph, "u-2")
    assert not trace.traceable
    assert trace.provenance_score == 0.0


def test_trace_unknown_article():
    assert not trace_to_factual_root(nx.DiGraph(), "nope").traceable


def test_trace_prefers_least_modified_path(chain):
    """Diamond: article reachable via a clean relay and a distorted copy."""
    alice = _register(chain, "alice")
    _record(chain, alice, "root", degree=0.0, fact_roots=["f-1"])
    _record(chain, alice, "clean", parents=["root"], degree=0.0, op="relay")
    _record(chain, alice, "dirty", parents=["root"], degree=0.7, op="distort")
    _record(chain, alice, "leaf", parents=["clean", "dirty"], degree=0.1, op="merge")
    graph = build_supply_chain_graph(chain.ledger)
    trace = trace_to_factual_root(graph, "leaf")
    assert trace.cumulative_modification == pytest.approx(0.1)
    assert "dirty" not in trace.path


def test_accountability_fingers_the_distorter(lineage):
    chain, accounts = lineage
    graph = build_supply_chain_graph(chain.ledger)
    assert find_original_author(graph, "a-4") == accounts["troll"].address


def test_accountability_untraceable_goes_to_origin(lineage):
    chain, accounts = lineage
    graph = build_supply_chain_graph(chain.ledger)
    assert find_original_author(graph, "u-2") == accounts["loner"].address


def test_accountability_unknown_article(lineage):
    chain, _ = lineage
    graph = build_supply_chain_graph(chain.ledger)
    assert find_original_author(graph, "missing") is None


def test_record_ranking_requires_existing_node(chain):
    with pytest.raises(ContractError, match="not recorded"):
        chain.invoke(
            _register(chain, "alice"), "supplychain", "record_ranking",
            {"article_id": "ghost", "provenance_score": 1.0, "ai_score": 1.0,
             "crowd_score": 1.0, "final_score": 1.0},
        )


def test_record_ranking_roundtrip(lineage):
    chain, accounts = lineage
    # Only a verified identity may rank; the first attestation bootstraps the root.
    chain.invoke(accounts["alice"], "identity", "verify", {"address": accounts["alice"].address})
    chain.invoke(
        accounts["alice"], "supplychain", "record_ranking",
        {"article_id": "a-1", "provenance_score": 1.0, "ai_score": 0.9,
         "crowd_score": None, "final_score": 0.95},
    )
    ranking = chain.query("supplychain", "get_ranking", {"article_id": "a-1"})
    assert ranking["final_score"] == 0.95


def test_a_record_cannot_take_over_a_factual_root(platform):
    """A record named ``fact:<id>`` would overwrite that factual root in
    every peer's graph: the honest relay would become untraceable and its
    provenance fall from 1.0 to 0.0.  The contract refuses the namespace."""
    fact = CorpusGenerator(seed=3).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    platform.register_participant("wire", role="publisher")
    platform.create_distribution_platform("wire", "wire-news")
    platform.create_news_room("wire", "wire-news", "politics", "politics")
    platform.publish_article("wire", "wire-news", "politics", "relay", fact.text, "politics")
    assert platform.trace("relay").root == "fact:f-0"
    assert platform.trace("relay").provenance_score == 1.0

    platform.register_participant("mallory", role="consumer", verified=False)
    with pytest.raises(ContractError, match="reserved"):
        platform.chain.invoke(
            platform.account("mallory"), "supplychain", "record_node",
            {"article_id": "fact:f-0", "content_hash": "0" * 64, "parents": [],
             "modification_degree": 1.0, "topic": "politics", "op": "publish"},
        )
    assert platform.graph.nodes["fact:f-0"]["is_fact_root"]
    trace = platform.trace("relay")
    assert trace.root == "fact:f-0" and trace.provenance_score == 1.0
    assert platform.accountable_author("relay") == platform.address_of("wire")
