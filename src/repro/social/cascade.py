"""Independent-cascade news propagation with mutation-on-share.

Round-based: everything posted in round *r* is seen by the poster's
followers, each of whom re-shares with a probability shaped by

- their agent kind (bots ≫ users ≫ journalists),
- the article's *emotional appeal* (sensational content travels faster —
  the empirical asymmetry the paper is built to fight),
- platform intervention (flagged articles get damped — the Facebook
  "reduce recurrence by 80 %" mechanism of ref [26, 27]),
- limited per-round attention (ref [65]).

A re-share may *mutate* the article (malicious agents use the paper's
modification taxonomy), so a cascade generates exactly the dynamic
news supply chain of Fig. 4.  A hook lets the platform record every
share as a blockchain transaction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.corpus.articles import Article
from repro.corpus.generator import CorpusGenerator
from repro.corpus.lexicon import EMOTIONAL_WORDS, tokenize
from repro.social.agents import AgentKind, SocialAgent

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "ShareEvent",
    "CascadeResult",
    "CascadeRunner",
    "emotional_appeal",
    "DRAW_SHARE",
    "DRAW_VERIFY",
    "DRAW_MUTATE",
    "DRAW_BENIGN",
]

_EMOTIONAL = frozenset(EMOTIONAL_WORDS)

#: Purposes for injectable keyed draw sources (see
#: :class:`repro.social.fastcascade.KeyedDraws`).  A draw source maps
#: (article key, agent index, purpose) to a uniform in [0, 1), so the
#: scalar and vectorized engines consume identical randomness no matter
#: which order they evaluate candidates in.
DRAW_SHARE, DRAW_VERIFY, DRAW_MUTATE, DRAW_BENIGN = 0, 1, 2, 3


def emotional_appeal(article: Article) -> float:
    """Virality multiplier in [1, 3] from the emotional register."""
    tokens = tokenize(article.text)
    if not tokens:
        return 1.0
    rate = sum(1 for t in tokens if t in _EMOTIONAL) / len(tokens)
    return min(3.0, 1.0 + 12.0 * rate)


@dataclass(frozen=True)
class ShareEvent:
    """One propagation edge: *agent* re-published *article* derived from
    *parent_article* which it saw from *source_agent*."""

    time: float
    round_index: int
    agent_id: str
    source_agent_id: str
    article_id: str
    parent_article_id: str
    op: str


@dataclass
class CascadeResult:
    """Everything a cascade produced, with per-root bookkeeping."""

    events: list[ShareEvent] = field(default_factory=list)
    articles: dict[str, Article] = field(default_factory=dict)
    root_of: dict[str, str] = field(default_factory=dict)
    exposures_by_round: list[dict[str, int]] = field(default_factory=list)
    shares_by_round: list[int] = field(default_factory=list)
    exposed_agents: dict[str, set[str]] = field(default_factory=dict)
    #: root id -> lineage article ids in creation order (root included);
    #: filled by the runners so :meth:`descendants` is O(lineage), not
    #: O(every article any root produced).
    children_by_root: dict[str, list[str]] = field(default_factory=dict)
    #: root id -> unique exposed-agent count.  The vectorized engine can
    #: skip materializing ``exposed_agents`` sets at scale and record the
    #: counts here instead; :meth:`reach` falls through to them.
    reach_counts: dict[str, int] = field(default_factory=dict)

    def reach(self, root_id: str) -> int:
        """Unique agents exposed to any descendant of *root_id*."""
        agents = self.exposed_agents.get(root_id)
        if agents is not None:
            return len(agents)
        return self.reach_counts.get(root_id, 0)

    def reach_curve(self, root_id: str) -> list[int]:
        """Cumulative exposure per round for one root."""
        return [snapshot.get(root_id, 0) for snapshot in self.exposures_by_round]

    def descendants(self, root_id: str) -> list[Article]:
        """Every article of *root_id*'s lineage, root included."""
        lineage = self.children_by_root.get(root_id)
        if lineage is None:
            # Hand-assembled results never filled the index; fall back
            # to the full scan these records used to require.
            return [a for aid, a in self.articles.items() if self.root_of.get(aid) == root_id]
        return [self.articles[aid] for aid in lineage]

    def record_article(self, article: Article, root_id: str) -> None:
        """Register *article* under *root_id*, keeping the lineage index
        consistent — the one write path both engines share."""
        self.articles[article.article_id] = article
        self.root_of[article.article_id] = root_id
        self.children_by_root.setdefault(root_id, []).append(article.article_id)


class CascadeRunner:
    """Runs cascades over a bound follow graph.

    Args:
        graph: directed graph; edge (u, v) means content flows u -> v.
        corpus: generator used for mutation-on-share (shares its rng).
        flagged: predicate article_id -> bool; flagged articles get
            their share probability multiplied by (1 - damping).
        on_share: callback fired for every share event (platform hook).
        damping: intervention strength (paper cites 80 % for Facebook).
        draws: optional keyed draw source (see
            :class:`repro.social.fastcascade.KeyedDraws`).  When given,
            every share/verify/mutate decision is a pure function of
            (article, agent, purpose) instead of a sequential ``rng``
            draw, which is what lets the vectorized engine reproduce
            this runner's output byte for byte.
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        corpus: CorpusGenerator,
        rng: random.Random | None = None,
        flagged: Callable[[str], bool] | None = None,
        promoted: Callable[[str], bool] | None = None,
        on_share: Callable[[ShareEvent, Article], None] | None = None,
        damping: float = 0.8,
        promotion_boost: float = 2.0,
        journalist_verify_accuracy: float = 0.85,
        draws=None,
    ):
        self.graph = graph
        self.corpus = corpus
        self.rng = rng or corpus.rng
        self.flagged = flagged or (lambda article_id: False)
        self.promoted = promoted or (lambda article_id: False)
        self.on_share = on_share
        self.damping = damping
        self.promotion_boost = promotion_boost
        self.journalist_verify_accuracy = journalist_verify_accuracy
        self.draws = draws
        # Appeal is a pure function of the text, and relays reuse the
        # parent's text object — keying the cache by text makes every
        # relay a cache hit instead of a fresh tokenization pass.
        self._appeal_cache: dict[str, float] = {}
        self._node_index: dict[int, int] | None = None
        self._key_cache: dict[str, int] = {}

    def _agent(self, node: int) -> SocialAgent:
        return self.graph.nodes[node]["agent"]

    def _agent_index(self, node: int) -> int:
        """Stable agent index shared with the vectorized engine (the
        node's rank in sorted node order, as in ``bind_agents``)."""
        if self._node_index is None:
            self._node_index = {n: i for i, n in enumerate(sorted(self.graph.nodes()))}
        return self._node_index[node]

    def _appeal(self, article: Article) -> float:
        cached = self._appeal_cache.get(article.text)
        if cached is None:
            cached = emotional_appeal(article)
            self._appeal_cache[article.text] = cached
        return cached

    def _unit(self, purpose: int, article: Article, agent_index: int | None) -> float:
        """One uniform draw: keyed when a draw source is injected,
        sequential from ``self.rng`` otherwise (the historical path)."""
        if self.draws is None or agent_index is None:
            return self.rng.random()
        key = self._key_cache.get(article.article_id)
        if key is None:
            key = self.draws.key(article.article_id)
            self._key_cache[article.article_id] = key
        return self.draws.unit(key, agent_index, purpose)

    def _wants_to_share(
        self,
        agent: SocialAgent,
        article: Article,
        poster: SocialAgent | None = None,
        agent_index: int | None = None,
    ) -> bool:
        probability = agent.share_probability * self._appeal(article)
        if (
            agent.ring is not None
            and poster is not None
            and poster.ring == agent.ring
        ):
            # Coordinated amplification: ring members re-share ring
            # content near-deterministically regardless of appeal.
            probability = max(probability, 0.9)
        if self.flagged(article.article_id):
            probability *= 1.0 - self.damping
        elif self.promoted(article.article_id):
            # Platform promotion: verified-factual content is surfaced
            # more prominently ("encourage and reward factual news
            # sources", §VII), raising its effective share rate.
            probability *= self.promotion_boost
        if agent.kind is AgentKind.JOURNALIST:
            # Journalists verify before sharing: they catch (and refuse)
            # fake content with some accuracy, and never share flagged items.
            if self.flagged(article.article_id):
                return False
            if article.label_fake and (
                self._unit(DRAW_VERIFY, article, agent_index)
                < self.journalist_verify_accuracy
            ):
                return False
        return self._unit(DRAW_SHARE, article, agent_index) < min(1.0, probability)

    def _derive_share(
        self,
        agent: SocialAgent,
        article: Article,
        time: float,
        agent_index: int | None = None,
    ) -> Article:
        if agent.malicious and (
            self._unit(DRAW_MUTATE, article, agent_index) < agent.mutate_probability
        ):
            return self.corpus.malicious_derivation(article, agent.agent_id, time)
        if self._unit(DRAW_BENIGN, article, agent_index) < 0.1:
            return self.corpus.benign_derivation(article, agent.agent_id, time)
        return self.corpus.relay_derivation(article, agent.agent_id, time)

    def run(
        self,
        seeds: list[tuple[int, Article]],
        n_rounds: int = 12,
        start_time: float = 0.0,
        time_per_round: float = 1.0,
    ) -> CascadeResult:
        """Propagate *seeds* (node, article) for *n_rounds* rounds."""
        result = CascadeResult()
        keyed = self.draws is not None
        frontier: list[tuple[int, Article]] = []
        for node, article in seeds:
            if article.article_id not in result.root_of:
                result.record_article(article, article.article_id)
            result.exposed_agents[article.article_id] = {self._agent(node).agent_id}
            frontier.append((node, article))
        for round_index in range(n_rounds):
            time = start_time + round_index * time_per_round
            attention_used: dict[str, int] = {}
            next_frontier: list[tuple[int, Article]] = []
            shares_this_round = 0
            for poster_node, article in frontier:
                root = result.root_of[article.article_id]
                for follower_node in self.graph.successors(poster_node):
                    agent = self._agent(follower_node)
                    if article.article_id in agent.seen:
                        continue
                    agent.seen.add(article.article_id)
                    result.exposed_agents.setdefault(root, set()).add(agent.agent_id)
                    if attention_used.get(agent.agent_id, 0) >= agent.attention:
                        continue
                    index = self._agent_index(follower_node) if keyed else None
                    if not self._wants_to_share(agent, article, self._agent(poster_node), index):
                        continue
                    attention_used[agent.agent_id] = attention_used.get(agent.agent_id, 0) + 1
                    derived = self._derive_share(agent, article, time, index)
                    result.record_article(derived, root)
                    event = ShareEvent(
                        time=time,
                        round_index=round_index,
                        agent_id=agent.agent_id,
                        source_agent_id=self._agent(poster_node).agent_id,
                        article_id=derived.article_id,
                        parent_article_id=article.article_id,
                        op=derived.op,
                    )
                    result.events.append(event)
                    shares_this_round += 1
                    if self.on_share is not None:
                        self.on_share(event, derived)
                    next_frontier.append((follower_node, derived))
            result.shares_by_round.append(shares_this_round)
            result.exposures_by_round.append(
                {root: len(agents) for root, agents in result.exposed_agents.items()}
            )
            frontier = next_frontier
            if not frontier:
                break
        return result
