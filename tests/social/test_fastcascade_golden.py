"""Golden digests of the vectorized engine's unkeyed output.

Keyed runs are pinned by equality with the scalar oracle
(``test_fastcascade.py``); a run off the runner's own generator has no
oracle, so these digests pin it: every uniform the round draws, in the
order it draws them, shows up in the events, the derived articles, the
reach, the curves and the per-agent share counts.  Each world is chosen
to reach the branches a frontier round has — flag damping, promotion,
journalist refusal, the ring floor and the per-round attention cap.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import numpy as np

from repro.corpus import CorpusGenerator
from repro.social import (
    CompiledCascadeGraph,
    FastCascadeRunner,
    bind_agents,
    build_social_world,
    interconnect,
    make_botnet,
    make_population,
    scale_free_follow_graph,
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _run_digests(result) -> dict[str, str]:
    return {
        "events": _digest([dataclasses.astuple(e) for e in result.events]),
        "articles": _digest([dataclasses.astuple(a) for a in result.articles.values()]),
        "reach": _digest((
            sorted((root, sorted(agents)) for root, agents in result.exposed_agents.items()),
            sorted(result.reach_counts.items()),
            result.shares_by_round,
            [sorted(snapshot.items()) for snapshot in result.exposures_by_round],
        )),
    }


def _stats_digests(stats) -> dict[str, str]:
    return {
        "curves": _digest((
            stats.reach_curves.astype("<i8").tobytes(),
            stats.shares_by_round,
            stats.rounds_run,
            stats.candidates_examined,
        )),
        "shares_by_agent": _digest(stats.shares_by_agent.astype("<i8").tobytes()),
    }


def _seeds(corpus, nodes):
    fact = corpus.factual(topic="elections", timestamp=0.0)
    fake = corpus.insertion_fake(fact, "agent-seed", 0.0)
    return list(zip(nodes, (fact, fake)))


def test_run_with_flag_and_promotion_predicates_is_pinned():
    graph, _, corpus = build_social_world(n_agents=400, seed=33)
    runner = FastCascadeRunner(
        graph, corpus, seed=79,
        flagged=lambda aid: aid.endswith(("0", "4", "8")),
        promoted=lambda aid: aid.endswith(("1", "5")),
    )
    seeds = _seeds(corpus, [0, 13])
    # Seeding an article twice restarts its exposure at the latest poster.
    seeds.append((21, seeds[0][1]))
    result = runner.run(seeds, n_rounds=9)
    assert sum(result.shares_by_round) > 0
    assert _run_digests(result) == {
        "events": "c05c6c0165b23dfe",
        "articles": "a379206ce457842e",
        "reach": "f21bd24417f03117",
    }


def test_run_with_botnet_ring_is_pinned():
    rng = random.Random(6)
    graph = scale_free_follow_graph(300, seed=6)
    agents = make_population(300, rng, bot_fraction=0.05)
    bind_agents(graph, agents)
    recruits = make_botnet(agents, size=8, rng=rng, ring_id="farm")
    interconnect(graph, recruits)
    start = next(
        node for node, attrs in graph.nodes(data=True)
        if attrs["agent"].agent_id == recruits[0].agent_id
    )
    corpus = CorpusGenerator(seed=7)
    result = FastCascadeRunner(graph, corpus, seed=2201).run(
        _seeds(corpus, [start, 5]), n_rounds=8
    )
    ring = {a.agent_id for a in recruits}
    assert any(e.agent_id in ring for e in result.events)
    assert _run_digests(result) == {
        "events": "93d1380a7898a80c",
        "articles": "c507079db048e5c2",
        "reach": "0deb4a3aa4262f8d",
    }


def test_run_stats_is_pinned():
    compiled = CompiledCascadeGraph.synthesize(20_000, mean_degree=8.0, seed=41)
    stats = FastCascadeRunner(compiled, seed=43).run_stats(
        [0, 7_000, 14_000], n_rounds=10, appeal=[1.4, 2.0, 2.6], fake=[False, True, True]
    )
    assert stats.total_shares > 0
    assert _stats_digests(stats) == {
        "curves": "853f800681675e85",
        "shares_by_agent": "50c0cbd13ca97dd8",
    }


def test_run_stats_with_flag_and_promotion_is_pinned():
    compiled = CompiledCascadeGraph.synthesize(20_000, mean_degree=10.0, seed=47)
    stats = FastCascadeRunner(compiled, seed=53).run_stats(
        [0, 6_000, 12_000], n_rounds=10, appeal=2.2, fake=[True, False, True],
        flag_round=3, flagged_roots=[0, 2], promoted_roots=[1, 2],
    )
    assert stats.total_shares > 0
    assert np.all(stats.reach_curves[:, -1] >= 1)
    assert _stats_digests(stats) == {
        "curves": "5e383a8e101e0797",
        "shares_by_agent": "df8cab35f5d16aac",
    }
