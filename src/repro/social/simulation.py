"""Scenario harnesses built on the cascade engine.

:func:`run_race` is the paper's headline dynamic (E10): seed one factual
and one fake story about the same topic at the same instant and measure
whose reach grows faster, with and without platform intervention
("factual-sourced reporting can outpace the spread of fake news").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.corpus.generator import CorpusGenerator
from repro.social.agents import SocialAgent, make_population
from repro.social.cascade import CascadeResult, CascadeRunner
from repro.social.graphs import bind_agents, scale_free_follow_graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["RaceOutcome", "RaceSummary", "build_social_world", "run_race", "run_races"]


@dataclass
class RaceOutcome:
    """Reach trajectories of a fake-vs-factual propagation race."""

    factual_reach: list[int]
    fake_reach: list[int]
    factual_root: str
    fake_root: str
    result: CascadeResult

    @property
    def final_factual(self) -> int:
        return self.factual_reach[-1] if self.factual_reach else 0

    @property
    def final_fake(self) -> int:
        return self.fake_reach[-1] if self.fake_reach else 0

    @property
    def fake_advantage(self) -> float:
        """Final fake reach / factual reach (> 1 means fake won)."""
        return self.final_fake / max(1, self.final_factual)


def build_social_world(
    n_agents: int = 500,
    seed: int = 0,
    bot_fraction: float = 0.08,
) -> tuple[nx.DiGraph, list[SocialAgent], CorpusGenerator]:
    """Standard experiment fixture: graph + bound agents + generator."""
    rng = random.Random(seed)
    graph = scale_free_follow_graph(n_agents, seed=seed)
    agents = make_population(n_agents, rng, bot_fraction=bot_fraction)
    bind_agents(graph, agents)
    corpus = CorpusGenerator(seed=seed + 1)
    return graph, agents, corpus


def run_race(
    graph: nx.DiGraph,
    corpus: CorpusGenerator,
    seed: int = 0,
    n_rounds: int = 12,
    intervene: bool = False,
    flag_round: int = 2,
    damping: float = 0.8,
    promotion_boost: float = 2.0,
    topic: str = "elections",
) -> RaceOutcome:
    """Seed a factual and a fake article simultaneously and race them.

    Both stories start from comparably connected hub accounts (news
    breaks from visible sources).  The fake is an emotional-insertion
    mutation of the factual story, so it enjoys the empirical virality
    advantage of sensational content.  With ``intervene=True`` the
    platform flags the fake lineage (share probability damped) and
    promotes the verified-factual lineage, both starting at
    ``flag_round`` — modelling detection latency.
    """
    rng = random.Random(seed + 17)
    # Seed both stories at hubs of comparable degree (top decile).
    by_degree = sorted(graph.nodes(), key=lambda n: graph.out_degree(n), reverse=True)
    hubs = by_degree[: max(4, len(by_degree) // 10)]
    factual_node, fake_node = rng.sample(hubs, 2)
    factual = corpus.factual(topic=topic, timestamp=0.0)
    fake = corpus.insertion_fake(factual, corpus.next_author(), 0.0, n_insertions=4)

    state = {"round": 0}
    root_of: dict[str, str] = {}

    def flagged(article_id: str) -> bool:
        if not intervene or state["round"] < flag_round:
            return False
        return root_of.get(article_id) == fake.article_id

    def promoted(article_id: str) -> bool:
        if not intervene or state["round"] < flag_round:
            return False
        return root_of.get(article_id) == factual.article_id

    runner = CascadeRunner(
        graph, corpus, rng=rng, flagged=flagged, promoted=promoted,
        damping=damping, promotion_boost=promotion_boost,
    )

    # The flag predicate needs to know each derived article's root while
    # the cascade is still running; maintain the root map incrementally
    # from share events (child inherits the parent's root).
    def track(event, article):
        state["round"] = event.round_index
        root_of[article.article_id] = root_of.get(event.parent_article_id, article.article_id)

    runner.on_share = track
    root_of[factual.article_id] = factual.article_id
    root_of[fake.article_id] = fake.article_id

    result = runner.run(
        seeds=[(factual_node, factual), (fake_node, fake)],
        n_rounds=n_rounds,
    )
    return RaceOutcome(
        factual_reach=result.reach_curve(factual.article_id),
        fake_reach=result.reach_curve(fake.article_id),
        factual_root=factual.article_id,
        fake_root=fake.article_id,
        result=result,
    )


@dataclass
class RaceSummary:
    """Mean outcomes across independent race trials.

    Single cascades are highly variance-dominated (one lucky hub share
    decides a race), so every claim about fake-vs-factual speed is made
    in expectation over trials — as the empirical literature does.
    """

    trials: int
    mean_factual: float
    mean_fake: float
    mean_factual_curve: list[float]
    mean_fake_curve: list[float]

    @property
    def fake_advantage(self) -> float:
        return self.mean_fake / max(1e-9, self.mean_factual)


def run_races(
    n_trials: int = 10,
    n_agents: int = 400,
    seed: int = 0,
    intervene: bool = False,
    n_rounds: int = 12,
    **race_kwargs,
) -> RaceSummary:
    """Run *n_trials* independent races on fresh worlds and average."""
    factual_total = 0.0
    fake_total = 0.0
    factual_curves = []
    fake_curves = []
    for trial in range(n_trials):
        graph, _, corpus = build_social_world(n_agents=n_agents, seed=seed + trial * 1000)
        outcome = run_race(
            graph, corpus, seed=seed + trial * 1000, intervene=intervene,
            n_rounds=n_rounds, **race_kwargs,
        )
        factual_total += outcome.final_factual
        fake_total += outcome.final_fake
        factual_curves.append(outcome.factual_reach)
        fake_curves.append(outcome.fake_reach)

    def _mean_curve(curves: list[list[int]]) -> list[float]:
        length = max((len(c) for c in curves), default=0)
        padded = [c + [c[-1]] * (length - len(c)) if c else [0] * length for c in curves]
        return [sum(col) / len(padded) for col in zip(*padded)] if padded else []

    return RaceSummary(
        trials=n_trials,
        mean_factual=factual_total / n_trials,
        mean_fake=fake_total / n_trials,
        mean_factual_curve=_mean_curve(factual_curves),
        mean_fake_curve=_mean_curve(fake_curves),
    )
