"""Geo-distributed consensus latency, and a cascade over real consensus."""

import random

from repro.chain import BlockchainNetwork, NetworkedChain
from repro.core import TrustingNewsPlatform
from repro.corpus import CorpusGenerator
from repro.simnet import FixedLatency, GeoLatency
from repro.social import CascadeRunner, bind_agents, make_population, scale_free_follow_graph


def _mean_commit_latency(latency_model, seed=91):
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.4,
        latency=latency_model, seed=seed,
    )
    network.install_contract(CounterContract)
    client = network.client()
    for index in range(10):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.peers[index % 4].submit(tx)
        network.run_for(1.5)
    network.run_for(10)
    network.assert_convergence()
    return network.obs.histogram("phase.commit_latency", peer="peer-0").mean


def test_geo_distribution_raises_commit_latency():
    """The paper's global deployment (§VII): cross-region links make
    consensus measurably slower than a single-datacenter network."""
    regions = {"peer-0": "us", "peer-1": "us", "peer-2": "eu", "peer-3": "apac"}
    lan = _mean_commit_latency(FixedLatency(0.01))
    geo = _mean_commit_latency(
        GeoLatency(regions, intra_base=0.01, inter_base=0.15, jitter_sigma=0.2)
    )
    assert geo > lan * 1.2


def test_cascade_ingested_over_real_consensus():
    """Shares recorded through PBFT: the full Fig. 4 pipeline with real
    ordering instead of LocalChain."""
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.15,
        latency=FixedLatency(0.005), seed=92,
    )
    platform = TrustingNewsPlatform(seed=92, chain=NetworkedChain(network))
    rng = random.Random(92)
    graph = scale_free_follow_graph(60, seed=92)
    agents = make_population(60, rng, bot_fraction=0.1)
    bind_agents(graph, agents)
    corpus = CorpusGenerator(seed=93)
    fact = corpus.factual(topic="politics")
    platform.seed_fact("f-net", fact.text, "record", "politics")
    seed_share = corpus.relay_derivation(fact, "agent-00000", 0.0)

    class _Seed:
        agent_id = "agent-00000"
        parent_article_id = ""
        op = "relay"

    platform.ingest_share(_Seed(), seed_share, "politics")
    events = []

    def on_share(event, article):
        platform.ingest_share(event, article, "politics")
        events.append(event)

    runner = CascadeRunner(graph, corpus, rng=rng, on_share=on_share)
    hub = max(graph.nodes(), key=lambda n: graph.out_degree(n))
    runner.run([(hub, seed_share)], n_rounds=4)
    # Every share must be committed on every peer, identically.
    network.run_for(5)
    network.assert_convergence()
    chain_graph = platform.graph
    for event in events:
        assert event.article_id in chain_graph
    if events:
        trace = platform.trace(events[-1].article_id)
        assert trace.traceable is (trace.root is not None)
    heights = {p.ledger.height for p in network.peers}
    assert len(heights) == 1
