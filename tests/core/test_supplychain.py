"""Supply-chain recording, graph reconstruction, tracing, accountability."""

import re

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
from repro.core.supplychain import FACT_PREFIX, SupplyChainGraph, add_supply_node
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


def _record(chain, account, article_id, parents=(), degree=0.0, op="publish"):
    return chain.invoke(
        account, "supplychain", "record_node",
        {"article_id": article_id, "content_hash": "h-" + article_id,
         "parents": list(parents), "modification_degree": degree,
         "topic": "politics", "op": op},
    )


def test_record_and_get(chain):
    """A record without text claims its parents and degrees, and no fact
    root: its record keeps the empty fact lists every reader's shape holds."""
    alice = _register(chain, "alice")
    _record(chain, alice, "a-1")
    node = chain.query("supplychain", "get_node", {"article_id": "a-1"})
    assert node["author"] == alice.address
    assert (node["parents"], node["fact_roots"], node["fact_degrees"]) == ([], [], [])


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


def test_a_record_names_each_parent_once(chain):
    """The graph keeps one edge per pair, so one id twice with two degrees
    would keep the last: in this order the copy would trace at 0.0 and
    hand accountability up to ``p``'s author, in the other at 0.9 and
    keep it with the recorder.  The contract refuses the repeat."""
    alice = _register(chain, "alice")
    _record(chain, alice, "p")
    args = {"article_id": "c", "content_hash": "h-c", "parents": ["p", "p"],
            "parent_degrees": [0.9, 0.0], "modification_degree": 0.0,
            "topic": "politics", "op": "relay"}
    with pytest.raises(ContractError, match="more than once"):
        chain.invoke(alice, "supplychain", "record_node", args)
    assert chain.query("supplychain", "get_node", {"article_id": "c"}) is None
    args["parents"], args["parent_degrees"] = ["p"], [0.9]
    chain.invoke(alice, "supplychain", "record_node", args)
    assert build_supply_chain_graph(chain.ledger).edges["c", "p"] == {"weight": 0.9}


def test_a_text_less_record_cannot_claim_a_fact_root(platform):
    """Any registered key could once name a fact root it never matched:
    an unverified consumer's record traced to ``fact:never-seeded`` with
    provenance 1.0 while the factual database stayed empty.  A fact root
    is now only ever derived from a seeded or promoted fact's text."""
    platform.register_participant("mallory", role="consumer", verified=False)
    chain = platform.chain
    height, digest = chain.ledger.height, chain.state.state_digest()
    with pytest.raises(ContractError, match=re.escape(
            "bad arguments for supplychain.record_node: unknown ['fact_roots', 'fact_degrees']")):
        chain.invoke(platform.account("mallory"), "supplychain", "record_node",
                     {"article_id": "forged", "content_hash": "0" * 64, "parents": [],
                      "modification_degree": 0.0, "topic": "politics", "op": "publish",
                      "fact_roots": ["never-seeded"], "fact_degrees": [0.0]})
    assert (chain.ledger.height, chain.state.state_digest()) == (height, digest)
    for graph in (platform.graph, build_supply_chain_graph(chain.ledger)):
        assert not [node for node in graph if node.startswith(FACT_PREFIX)]
    assert not platform.trace("forged").traceable
    assert platform.facts() == []


def test_graph_reconstruction(platform):
    """The fold of the ledger: a text-less record's claimed parent edge and
    its author, and the fact edge a copy of a seeded fact's text derives."""
    fact = CorpusGenerator(seed=3).factual(topic="politics")
    platform.seed_fact("f-1", fact.text, "public-record", "politics")
    for name in ("alice", "troll"):
        platform.register_participant(name, role="consumer", verified=False)
    platform.report_external("alice", "a-1", fact.text, "politics", source="wire")
    _record(platform.chain, platform.account("troll"), "a-3", parents=["a-1"], degree=0.6,
            op="distort")
    graph = build_supply_chain_graph(platform.chain.ledger)
    assert graph.has_edge("a-3", "a-1")
    assert graph.has_edge("a-1", "fact:f-1")
    assert graph.nodes["fact:f-1"]["is_fact_root"]
    assert graph.nodes["a-3"]["modification_degree"] == 0.6
    assert graph.nodes["a-3"]["author"] == platform.address_of("troll")


def _graph(*nodes):
    """A supply-chain graph of hand-written ``supply-node-recorded`` events,
    one per ``(article id, author, op, {parent: degree})``: a ``fact:``
    parent becomes a fact root.  The walks below need exact degrees."""
    graph = SupplyChainGraph()
    for height, (article_id, author, op, links) in enumerate(nodes, start=1):
        parents = [p for p in links if not p.startswith(FACT_PREFIX)]
        facts = [p for p in links if p.startswith(FACT_PREFIX)]
        add_supply_node(graph, {
            "article_id": article_id, "_sender": author, "op": op, "topic": "politics",
            "modification_degree": min(links.values(), default=1.0), "_height": height,
            "_tx_id": f"tx-{article_id}", "parents": parents,
            "parent_degrees": [links[p] for p in parents],
            "fact_roots": [f[len(FACT_PREFIX):] for f in facts],
            "fact_degrees": [links[f] for f in facts],
        })
    return graph


@pytest.fixture
def lineage():
    """fact:f-1 <- a-1 (relay, 0.0) <- a-2 (relay 0.0) <- a-3 (distort 0.6) <- a-4 (relay 0.0);
    plus untraceable u-1 <- u-2."""
    return _graph(
        ("a-1", "alice", "publish", {"fact:f-1": 0.0}),
        ("a-2", "bob", "relay", {"a-1": 0.0}),
        ("a-3", "troll", "distort", {"a-2": 0.6}),
        ("a-4", "relayer", "relay", {"a-3": 0.0}),
        ("u-1", "loner", "fabricate", {}),
        ("u-2", "bob", "relay", {"u-1": 0.0}),
    )


def test_trace_faithful_chain(lineage):
    trace = trace_to_factual_root(lineage, "a-2")
    assert trace.traceable and trace.root == "fact:f-1"
    assert trace.cumulative_modification == pytest.approx(0.0)
    assert trace.provenance_score == pytest.approx(1.0)
    assert trace.path == ["a-2", "a-1", "fact:f-1"]


def test_trace_accumulates_modification(lineage):
    trace = trace_to_factual_root(lineage, "a-4")
    assert trace.traceable
    assert trace.cumulative_modification == pytest.approx(0.6)
    assert trace.provenance_score == pytest.approx(0.4)


def test_untraceable_article(lineage):
    trace = trace_to_factual_root(lineage, "u-2")
    assert not trace.traceable
    assert trace.provenance_score == 0.0


def test_trace_unknown_article():
    assert not trace_to_factual_root(nx.DiGraph(), "nope").traceable


def test_trace_prefers_least_modified_path():
    """Diamond: article reachable via a clean relay and a distorted copy."""
    graph = _graph(
        ("root", "alice", "publish", {"fact:f-1": 0.0}),
        ("clean", "alice", "relay", {"root": 0.0}),
        ("dirty", "alice", "distort", {"root": 0.7}),
        ("leaf", "alice", "merge", {"clean": 0.1, "dirty": 0.1}),
    )
    trace = trace_to_factual_root(graph, "leaf")
    assert trace.cumulative_modification == pytest.approx(0.1)
    assert "dirty" not in trace.path


def test_accountability_fingers_the_distorter(lineage):
    assert find_original_author(lineage, "a-4") == "troll"


def test_accountability_untraceable_goes_to_origin(lineage):
    assert find_original_author(lineage, "u-2") == "loner"


def test_accountability_unknown_article(lineage):
    assert find_original_author(lineage, "missing") is None


def test_record_ranking_requires_existing_node(chain):
    with pytest.raises(ContractError, match="not recorded"):
        chain.invoke(
            _register(chain, "alice"), "supplychain", "record_ranking",
            {"article_id": "ghost", "provenance_score": 1.0, "ai_score": 1.0,
             "crowd_score": 1.0, "final_score": 1.0},
        )


def test_record_ranking_roundtrip(chain):
    alice = _register(chain, "alice")
    _record(chain, alice, "a-1")
    # Only a verified identity may rank; the first attestation bootstraps the root.
    chain.invoke(alice, "identity", "verify", {"address": alice.address})
    chain.invoke(
        alice, "supplychain", "record_ranking",
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
