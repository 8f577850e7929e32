"""The full TrustingNewsPlatform over the distributed chain.

Identical platform code, but every transaction is endorsed, ordered by
consensus, and MVCC-validated on four peers — the deployment §IV
describes.  Kept to one scenario because each invocation pays simulated
consensus latency.
"""

import pytest

from repro.chain import BlockchainNetwork, NetworkedChain
from repro.core import TrustingNewsPlatform
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.simnet import FixedLatency


@pytest.fixture(scope="module", params=["poa", "pbft"])
def networked_platform(request):
    network = BlockchainNetwork(
        n_peers=4, consensus=request.param, block_interval=0.2,
        latency=FixedLatency(0.01), seed=123,
    )
    chain = NetworkedChain(network)
    platform = TrustingNewsPlatform(seed=123, chain=chain)
    return platform, network


def test_full_pipeline_over_consensus(networked_platform):
    platform, network = networked_platform
    gen = CorpusGenerator(seed=124)
    fact = gen.factual(topic="economy")
    platform.seed_fact("f-net", fact.text, "stats-office", "economy")
    platform.register_participant("wire", role="publisher")
    platform.create_distribution_platform("wire", "net-wire")
    platform.create_news_room("wire", "net-wire", "macro", "economy")
    report = relay(fact, "wire", 1.0)
    published = platform.publish_article(
        "wire", "net-wire", "macro", "net-a1", report.text, "economy"
    )
    assert published.fact_roots == ("f-net",)

    fake = gen.insertion_fake(report, "wire", 2.0, n_insertions=4)
    platform.publish_article("wire", "net-wire", "macro", "net-a2", fake.text, "economy")

    for index in range(3):
        platform.register_participant(f"net-checker-{index}", role="checker")
        platform.cast_vote(f"net-checker-{index}", "net-a1", True)
        platform.cast_vote(f"net-checker-{index}", "net-a2", False)

    factual_rank = platform.rank_article("net-a1")
    fake_rank = platform.rank_article("net-a2")
    assert factual_rank.score > fake_rank.score

    trace = platform.trace("net-a2")
    assert trace.traceable and trace.root == "fact:f-net"

    # Consensus-level health: all peers converged, chains audit clean.
    network.run_for(5)
    network.assert_convergence()
    for peer in network.peers:
        assert peer.ledger.verify_chain()
    heights = {p.ledger.height for p in network.peers}
    assert len(heights) == 1


def test_a_joined_peer_serves_the_platform_contracts():
    """Contracts installed through the adapter are the network's: a peer
    that joins later gets them, and reads from it answer once it is the
    only live peer."""
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.2,
        latency=FixedLatency(0.01), seed=125,
    )
    platform = TrustingNewsPlatform(seed=125, chain=NetworkedChain(network))
    joiner = network.join_peer()
    address = platform.governance.address
    result = joiner.registry.execute(
        joiner.state, "identity", "get_identity", {"address": address},
        caller="query", timestamp=network.sim.now, tx_id="query",
    )
    assert result.success, result.error
    for peer in network.peers[:4]:
        peer.crashed = True
    assert platform.chain.query("identity", "get_identity", {"address": address})["role"] == "checker"
