"""Integration: platform contracts over the *distributed* chain.

The platform normally runs on LocalChain for speed; this suite proves
the same contracts behave identically when ordered by real consensus on
the simulated network — the deployment the paper actually describes.
"""

import pytest

from repro.chain import BlockchainNetwork, EndorsementPolicy
from repro.core import (
    FactualDatabaseContract,
    IdentityContract,
    SupplyChainContract,
    VoteContract,
    build_supply_chain_graph,
    trace_to_factual_root,
)
from repro.corpus import CorpusGenerator
from repro.simnet import FixedLatency


@pytest.fixture(scope="module", params=["poa", "pbft"])
def net(request):
    network = BlockchainNetwork(
        n_peers=4, consensus=request.param, block_interval=0.5,
        latency=FixedLatency(0.02), seed=55,
    )
    for contract in (IdentityContract, FactualDatabaseContract, SupplyChainContract, VoteContract):
        network.install_contract(contract)
    return network


@pytest.fixture(scope="module")
def governance(net):
    """The network's governance root: the first identity to verify itself."""
    client = net.client()
    assert client.invoke("identity", "register", {"display_name": "gov", "role": "checker"}).success
    assert client.invoke("identity", "verify", {"address": client.address}).success
    return client


def test_identity_and_facts_over_consensus(net, governance):
    receipt = governance.invoke("factualdb", "seed_fact",
                                {"fact_id": "f-1", "content_hash": "h", "source": "s",
                                 "topic": "politics"})
    assert receipt.success
    assert "f-1" in governance.query("factualdb", "list_facts", {})
    net.run_for(5)
    net.assert_convergence()


def test_supply_chain_graph_identical_on_all_peers(net, governance):
    """A record copying a seeded fact's text and a text-less relay of it:
    every peer's fold derives the same fact link and keeps the same
    claimed parent edge."""
    fact = CorpusGenerator(seed=55).factual(topic="politics")
    governance.invoke("factualdb", "seed_fact",
                      {"fact_id": "f-net", "content_hash": "h", "source": "s",
                       "topic": "politics", "text": fact.text})
    author = net.client()
    author.invoke("identity", "register", {"display_name": "a", "role": "creator"})
    author.invoke("supplychain", "record_node",
                  {"article_id": "net-a1", "content_hash": "h", "topic": "politics",
                   "op": "publish", "text": fact.text})
    author.invoke("supplychain", "record_node",
                  {"article_id": "net-a2", "content_hash": "h2", "parents": ["net-a1"],
                   "parent_degrees": [0.3], "modification_degree": 0.3,
                   "topic": "politics", "op": "insert"})
    net.run_for(5)
    net.assert_convergence()
    graphs = [build_supply_chain_graph(peer.ledger) for peer in net.peers]
    heights = [p.ledger.height for p in net.peers]
    assert len(set(heights)) == 1
    reference_edges = sorted(graphs[0].edges(data=True))
    assert graphs[0].edges["net-a1", "fact:f-net"] == {"weight": 0.0}
    for graph in graphs[1:]:
        assert sorted(graph.edges(data=True)) == reference_edges
    trace = trace_to_factual_root(graphs[0], "net-a2")
    assert trace.traceable and trace.root == "fact:f-net"
    assert trace.cumulative_modification == pytest.approx(0.3)


def test_endorsement_policy_multi_peer():
    network = BlockchainNetwork(n_peers=4, consensus="poa", block_interval=0.5, seed=77)
    network.install_contract(IdentityContract, policy=EndorsementPolicy(required=3))
    client = network.client()
    receipt = client.invoke("identity", "register", {"display_name": "x", "role": "consumer"})
    assert receipt.success
    network.run_for(5)  # let the block reach every peer
    for peer in network.peers:
        committed = peer.ledger.get_transaction(receipt.tx_id)
        assert committed is not None and committed.valid
        assert len(committed.transaction.endorsements) >= 3
