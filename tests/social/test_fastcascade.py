"""Vectorized cascade engine: compilation, determinism, and the
scalar-oracle equivalence contract.

The deep property sweep lives in ``tests/props/test_cascade_equivalence``;
these tests pin the concrete mechanics — CSR layout, keyed draws, keyed
runs checked event by event against the scalar oracle, the
bulk-statistics path on the runner's own generator — on worlds small
enough to check by hand.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.corpus import CorpusGenerator
from repro.errors import SimulationError
from repro.social import (
    CascadeResult,
    CascadeRunner,
    CompiledCascadeGraph,
    FastCascadeRunner,
    KeyedDraws,
    bind_agents,
    build_social_world,
    interconnect,
    make_botnet,
    make_population,
    scale_free_follow_graph,
    small_world_follow_graph,
)


def _world(n_agents=120, seed=3):
    graph, agents, corpus = build_social_world(n_agents=n_agents, seed=seed)
    return graph, agents, corpus


def _clear_seen(graph):
    for node in graph.nodes():
        graph.nodes[node]["agent"].seen.clear()


def _seed_pair(corpus):
    fact = corpus.factual(topic="elections", timestamp=0.0)
    fake = corpus.insertion_fake(fact, "agent-seed", 0.0)
    return fact, fake


def _run_both(graph, seed_nodes, *, n_rounds=6, draws_seed=9, corpus_seed=55,
              scalar_kwargs=None, fast_kwargs=None):
    """Run scalar and fast engines off one keyed draw source and fresh,
    identically seeded corpora; returns (scalar_result, fast_result)."""
    draws = KeyedDraws(seed=draws_seed)
    _clear_seen(graph)
    corpus_a = CorpusGenerator(seed=corpus_seed)
    seeds_a = list(zip(seed_nodes, _seed_pair(corpus_a)))
    scalar = CascadeRunner(
        graph, corpus_a, rng=random.Random(1), draws=draws, **(scalar_kwargs or {})
    ).run(seeds_a, n_rounds=n_rounds)
    _clear_seen(graph)
    corpus_b = CorpusGenerator(seed=corpus_seed)
    seeds_b = list(zip(seed_nodes, _seed_pair(corpus_b)))
    fast = FastCascadeRunner(
        graph, corpus_b, seed=1, draws=draws, **(fast_kwargs or {})
    ).run(seeds_b, n_rounds=n_rounds)
    return scalar, fast


def assert_identical(scalar: CascadeResult, fast: CascadeResult) -> None:
    assert scalar.events == fast.events
    assert scalar.articles == fast.articles
    assert scalar.root_of == fast.root_of
    assert scalar.children_by_root == fast.children_by_root
    assert scalar.shares_by_round == fast.shares_by_round
    assert scalar.exposures_by_round == fast.exposures_by_round
    assert scalar.exposed_agents == fast.exposed_agents


# -- KeyedDraws -------------------------------------------------------------

def test_keyed_draws_scalar_and_vector_paths_agree_bitwise():
    draws = KeyedDraws(seed=42)
    keys = np.array([draws.key(f"art-{i:06d}") for i in range(50)], dtype=np.uint64)
    agents = np.arange(50, dtype=np.int64) * 7 % 41
    for purpose in range(4):
        vector = draws.unit_array(keys, agents, purpose)
        scalar = [draws.unit(int(k), int(a), purpose) for k, a in zip(keys, agents)]
        assert vector.tolist() == scalar
        assert all(0.0 <= u < 1.0 for u in scalar)


def test_keyed_draws_depend_on_every_component():
    draws = KeyedDraws(seed=0)
    key = draws.key("art-000001")
    base = draws.unit(key, 5, 0)
    assert base != draws.unit(key, 6, 0)
    assert base != draws.unit(key, 5, 1)
    assert base != draws.unit(draws.key("art-000002"), 5, 0)
    assert base != KeyedDraws(seed=1).unit(key, 5, 0)
    # Same inputs, same seed: a pure function.
    assert base == KeyedDraws(seed=0).unit(key, 5, 0)


# -- compilation ------------------------------------------------------------

def test_compiled_graph_matches_networkx_adjacency():
    graph, agents, _ = _world(n_agents=80, seed=5)
    compiled = CompiledCascadeGraph.from_graph(graph)
    nodes = sorted(graph.nodes())
    assert compiled.n_agents == len(nodes)
    assert compiled.n_edges == graph.number_of_edges()
    index = {node: i for i, node in enumerate(nodes)}
    for node in nodes:
        i = index[node]
        row = compiled.indices[compiled.indptr[i]:compiled.indptr[i + 1]]
        assert [nodes[j] for j in row] == list(graph.successors(node))
        agent = graph.nodes[node]["agent"]
        assert compiled.agent_id(i) == agent.agent_id
        assert compiled.share_probability[i] == agent.share_probability
        assert compiled.attention[i] == agent.attention
        assert compiled.out_degree(i) == graph.out_degree(node)


def test_compile_requires_bound_agents():
    graph = scale_free_follow_graph(30, seed=1)
    with pytest.raises(SimulationError):
        CompiledCascadeGraph.from_graph(graph)


def test_compiled_ring_codes_group_ring_members():
    rng = random.Random(2)
    graph = scale_free_follow_graph(60, seed=2)
    agents = make_population(60, rng, bot_fraction=0.0)
    bind_agents(graph, agents)
    recruits = make_botnet(agents, size=5, rng=rng, ring_id="farm")
    interconnect(graph, recruits)
    compiled = CompiledCascadeGraph.from_graph(graph)
    ring_ids = {a.agent_id for a in recruits}
    codes = {
        compiled.ring_codes[i]
        for i in range(compiled.n_agents)
        if compiled.agent_id(i) in ring_ids
    }
    assert len(codes) == 1 and codes != {-1}
    outside = {
        compiled.ring_codes[i]
        for i in range(compiled.n_agents)
        if compiled.agent_id(i) not in ring_ids
    }
    assert outside == {-1}


def test_synthesize_is_deterministic_and_well_formed():
    a = CompiledCascadeGraph.synthesize(5_000, mean_degree=6.0, seed=13)
    b = CompiledCascadeGraph.synthesize(5_000, mean_degree=6.0, seed=13)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.kind_codes, b.kind_codes)
    c = CompiledCascadeGraph.synthesize(5_000, mean_degree=6.0, seed=14)
    assert not np.array_equal(a.indices, c.indices)
    # No self-follows, targets in range, degrees positive.
    own = np.repeat(np.arange(a.n_agents), np.diff(a.indptr))
    assert not np.any(a.indices == own)
    assert a.indices.min() >= 0 and a.indices.max() < a.n_agents
    assert np.all(np.diff(a.indptr) >= 1)
    assert a.node_to_index(123) == 123
    with pytest.raises(SimulationError):
        a.node_to_index(5_000)


# -- scalar-vs-fast equivalence (the oracle contract) -----------------------

def test_keyed_equivalence_on_scale_free_world():
    graph, _, _ = _world(n_agents=150, seed=21)
    scalar, fast = _run_both(graph, [3, 57], n_rounds=8)
    assert_identical(scalar, fast)
    assert sum(scalar.shares_by_round) > 0  # the check must not be vacuous


def test_keyed_equivalence_on_small_world_oracle_suite():
    """The acceptance-criteria suite: small-world graphs, several seeds,
    byte-identical output."""
    for seed in (0, 7, 19):
        graph = small_world_follow_graph(90, k_neighbors=6, rewire=0.2, seed=seed)
        agents = make_population(90, random.Random(seed), bot_fraction=0.1)
        bind_agents(graph, agents)
        scalar, fast = _run_both(
            graph, [0, 11], n_rounds=7, draws_seed=seed, corpus_seed=seed + 40
        )
        assert_identical(scalar, fast)


def test_keyed_equivalence_under_flag_and_promotion():
    graph, _, _ = _world(n_agents=150, seed=8)
    flagged = lambda aid: aid.endswith(("0", "4", "8"))
    promoted = lambda aid: aid.endswith(("1", "5"))
    scalar, fast = _run_both(
        graph, [2, 9], n_rounds=7,
        scalar_kwargs={"flagged": flagged, "promoted": promoted},
        fast_kwargs={"flagged": flagged, "promoted": promoted},
    )
    assert_identical(scalar, fast)


def test_keyed_equivalence_with_botnet_ring():
    rng = random.Random(4)
    graph = scale_free_follow_graph(140, seed=4)
    agents = make_population(140, rng, bot_fraction=0.0)
    bind_agents(graph, agents)
    recruits = make_botnet(agents, size=8, rng=rng, ring_id="farm")
    interconnect(graph, recruits)
    start = next(
        node for node, attrs in graph.nodes(data=True)
        if attrs["agent"].agent_id == recruits[0].agent_id
    )
    scalar, fast = _run_both(graph, [start, 1], n_rounds=7)
    assert_identical(scalar, fast)
    assert any(e.agent_id in {a.agent_id for a in recruits} for e in scalar.events)


def test_on_share_hook_fires_identically():
    graph, _, _ = _world(n_agents=100, seed=6)
    seen_scalar, seen_fast = [], []
    scalar, fast = _run_both(
        graph, [0, 5], n_rounds=5,
        scalar_kwargs={"on_share": lambda e, a: seen_scalar.append((e, a))},
        fast_kwargs={"on_share": lambda e, a: seen_fast.append((e, a))},
    )
    assert seen_scalar == seen_fast
    assert [e for e, _ in seen_scalar] == scalar.events


# -- fast engine on its own -------------------------------------------------

def test_fast_engine_deterministic_in_seed_without_draw_source():
    graph, _, _ = _world(n_agents=120, seed=10)
    compiled = CompiledCascadeGraph.from_graph(graph)

    def run(seed):
        corpus = CorpusGenerator(seed=31)
        seeds = list(zip([0, 3], _seed_pair(corpus)))
        return FastCascadeRunner(compiled, corpus, seed=seed).run(seeds, n_rounds=6)

    first, again = run(5), run(5)
    assert first.events == again.events
    assert first.exposed_agents == again.exposed_agents
    other = run(6)
    assert first.events != other.events


def test_unmaterialized_run_reports_reach_via_counts():
    graph, _, _ = _world(n_agents=120, seed=12)
    compiled = CompiledCascadeGraph.from_graph(graph)

    def run(materialize):
        corpus = CorpusGenerator(seed=33)
        seeds = list(zip([1, 7], _seed_pair(corpus)))
        return FastCascadeRunner(compiled, corpus, seed=2).run(
            seeds, n_rounds=6, materialize_exposed=materialize
        )

    full, lean = run(True), run(False)
    assert lean.exposed_agents == {}
    for root in full.exposed_agents:
        assert lean.reach(root) == full.reach(root) == len(full.exposed_agents[root])
    assert full.events == lean.events


def test_descendants_uses_lineage_index():
    graph, _, _ = _world(n_agents=120, seed=14)
    corpus = CorpusGenerator(seed=35)
    fact, fake = _seed_pair(corpus)
    result = FastCascadeRunner(graph, corpus, seed=3).run(
        [(0, fact), (4, fake)], n_rounds=6
    )
    for root in (fact.article_id, fake.article_id):
        lineage = result.descendants(root)
        assert lineage[0].article_id == root
        assert {a.article_id for a in lineage} == {
            aid for aid, r in result.root_of.items() if r == root
        }
    # Hand-assembled results (no index) fall back to the scan.
    bare = CascadeResult()
    bare.articles = dict(result.articles)
    bare.root_of = dict(result.root_of)
    assert {a.article_id for a in bare.descendants(fake.article_id)} == {
        a.article_id for a in result.descendants(fake.article_id)
    }


# -- bulk statistics path ---------------------------------------------------

def test_run_stats_structural_invariants_at_scale():
    compiled = CompiledCascadeGraph.synthesize(20_000, mean_degree=8.0, seed=17)
    runner = FastCascadeRunner(compiled, seed=5)
    stats = runner.run_stats([0, 5_000, 10_000], n_rounds=10, appeal=2.0, fake=True)
    assert stats.n_agents == 20_000
    curves = [stats.reach_curve(i) for i in range(3)]
    for curve in curves:
        assert all(b >= a for a, b in zip(curve, curve[1:]))  # monotone
        assert 1 <= curve[-1] <= 20_000
    assert all(s >= 0 for s in stats.shares_by_round)
    assert stats.total_shares == int(stats.shares_by_agent.sum())
    assert stats.candidates_examined >= stats.total_shares


def test_run_stats_flag_damping_orders_reach():
    compiled = CompiledCascadeGraph.synthesize(20_000, mean_degree=8.0, seed=19)
    open_run = FastCascadeRunner(compiled, seed=7).run_stats(
        [0], n_rounds=10, appeal=2.4, fake=True
    )
    damped = FastCascadeRunner(compiled, seed=7).run_stats(
        [0], n_rounds=10, appeal=2.4, fake=True, flag_round=2, flagged_roots=[0]
    )
    assert damped.reach(0) < open_run.reach(0)
    # Before the flag lands the two runs see identical worlds.
    assert damped.reach_curve(0)[:2] == open_run.reach_curve(0)[:2]


def test_run_stats_promotion_boosts_reach():
    compiled = CompiledCascadeGraph.synthesize(20_000, mean_degree=8.0, seed=23)
    plain = FastCascadeRunner(compiled, seed=9).run_stats(
        [0], n_rounds=10, appeal=1.1, fake=False
    )
    promoted = FastCascadeRunner(compiled, seed=9).run_stats(
        [0], n_rounds=10, appeal=1.1, fake=False,
        flag_round=0, promoted_roots=[0],
    )
    assert promoted.reach(0) > plain.reach(0)


def test_run_stats_is_deterministic_in_seed():
    compiled = CompiledCascadeGraph.synthesize(10_000, mean_degree=6.0, seed=29)
    a = FastCascadeRunner(compiled, seed=11).run_stats([0, 9], n_rounds=8)
    b = FastCascadeRunner(compiled, seed=11).run_stats([0, 9], n_rounds=8)
    assert a.shares_by_round == b.shares_by_round
    assert np.array_equal(a.reach_curves, b.reach_curves)
    assert np.array_equal(a.shares_by_agent, b.shares_by_agent)


def test_run_stats_refuses_a_keyed_runner():
    """The bulk path draws from the runner's generator, so a runner built
    with a KeyedDraws refuses it rather than ignore its draw source."""
    compiled = CompiledCascadeGraph.synthesize(100, seed=1)
    runner = FastCascadeRunner(compiled, seed=1, draws=KeyedDraws(seed=0))
    with pytest.raises(SimulationError, match=r"run\(\)"):
        runner.run_stats([0], n_rounds=2)


def test_run_without_corpus_requires_stats_path():
    compiled = CompiledCascadeGraph.synthesize(100, seed=1)
    runner = FastCascadeRunner(compiled, seed=1)
    with pytest.raises(SimulationError):
        runner.run([(0, None)], n_rounds=2)
