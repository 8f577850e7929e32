"""Domain-topic expert identification from ledger history (§VI).

"AI analyzing the history of blockchain ledger to identify the fact
news creators of a given domain topic as the potential domain topic
experts."  Mechanically: walk the supply-chain graph, credit each
author with the provenance quality of the articles they created in a
topic, and rank authors by quality-weighted volume.  E8 plants known
experts and scores the panel's precision/recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.supplychain import trace_to_factual_root

if TYPE_CHECKING:
    import networkx as nx

    from repro.core.supplychain import SupplyChainGraph

__all__ = ["ExpertScore", "ExpertFinder"]


@dataclass(frozen=True)
class ExpertScore:
    """One author's standing in one topic."""

    author: str
    topic: str
    articles: int
    mean_provenance: float
    score: float


class ExpertFinder:
    """Mines the supply-chain graph for per-topic expertise."""

    def __init__(self, graph: SupplyChainGraph | nx.DiGraph, min_articles: int = 2):
        self.graph = graph
        self.min_articles = min_articles
        self._trace_cache: dict[str, float] = {}

    def _provenance_score(self, article_id: str) -> float:
        cached = self._trace_cache.get(article_id)
        if cached is None:
            cached = trace_to_factual_root(self.graph, article_id).provenance_score
            self._trace_cache[article_id] = cached
        return cached

    def scores(self, topic: str) -> list[ExpertScore]:
        """All authors active in *topic*, ranked by expertise score.

        Score = mean provenance quality x log(1 + volume): an author
        must be *consistently* factual and *productive*; one lucky relay
        does not make an expert, and a bot flooding mutations scores
        near zero because its mean provenance collapses.
        """
        per_author: dict[str, list[float]] = {}
        for node, attrs in self.graph.nodes(data=True):
            if attrs.get("is_fact_root") or attrs.get("topic") != topic:
                continue
            author = attrs.get("author")
            if author is None:
                continue
            per_author.setdefault(author, []).append(self._provenance_score(node))
        results = []
        for author, scores in per_author.items():
            if len(scores) < self.min_articles:
                continue
            mean_provenance = sum(scores) / len(scores)
            results.append(
                ExpertScore(
                    author=author,
                    topic=topic,
                    articles=len(scores),
                    mean_provenance=mean_provenance,
                    score=mean_provenance * math.log1p(len(scores)),
                )
            )
        results.sort(key=lambda e: (-e.score, e.author))
        return results

    def recruit_pool(
        self,
        topic: str,
        rng,
        base_accuracy: float = 0.72,
        expert_accuracy: float = 0.93,
        pool_size: int = 12,
        min_quality: float = 0.75,
    ):
        """Build a validator pool seeded with ledger-vetted experts (§VI).

        "This can help to increase the domain topic experts of
        fact-checking pools, and dynamically suggest a group of domain
        topic experts to a given topic in real time when news emerges."

        Experts found in the supply chain enter with high modelled
        accuracy and elevated starting reputation (their track record is
        already on the ledger); the rest of the pool is ordinary
        checkers.  Returns a
        :class:`~repro.core.crowdsourcing.ValidatorPool`.
        """
        from repro.core.crowdsourcing import Validator, ValidatorPool

        experts = [e for e in self.scores(topic) if e.mean_provenance >= min_quality]
        validators = []
        for standing in experts[:pool_size]:
            validators.append(
                Validator(
                    validator_id=standing.author,
                    accuracy=expert_accuracy,
                    reputation=1.0 + standing.score,  # ledger track record
                    address=standing.author,
                )
            )
        index = 0
        while len(validators) < pool_size:
            validators.append(
                Validator(
                    validator_id=f"recruit-{topic}-{index:03d}",
                    accuracy=rng.uniform(base_accuracy - 0.08, base_accuracy + 0.08),
                )
            )
            index += 1
        return ValidatorPool(validators=validators)

    def suggest_panel(self, topic: str, k: int = 5, min_quality: float = 0.75) -> list[str]:
        """The dynamic fact-checking panel for an emerging topic.

        Only authors whose mean provenance clears *min_quality* are
        eligible — a prolific but sloppy account must not buy its way
        onto a panel with volume.
        """
        eligible = [e for e in self.scores(topic) if e.mean_provenance >= min_quality]
        return [e.author for e in eligible[:k]]
