"""Fake-news prediction before propagation (§VII future work).

Two predictors the paper calls for:

- :class:`FakeRiskPredictor` — score an article *at publication time*
  (zero shares) from its content plus the author's on-ledger history;
  the ledger is what makes the history feature possible at all.
- :class:`ViralityPredictor` — from the first ``k`` rounds of cascade
  telemetry, predict whether a lineage will go viral, so interventions
  can be triggered "before it has been propagated and disputed".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._numpy import np
from repro.corpus.articles import Article
from repro.errors import MLError
from repro.ml.features import StylometricExtractor
from repro.ml.logistic import LogisticRegression
from repro.ml.vectorize import StandardScaler
from repro.social.agents import AgentKind, SocialAgent
from repro.social.cascade import CascadeResult

if TYPE_CHECKING:
    import networkx as nx

    from repro.core.supplychain import SupplyChainGraph

__all__ = ["author_history_features", "FakeRiskPredictor", "early_cascade_features", "ViralityPredictor"]


def author_history_features(graph: SupplyChainGraph | nx.DiGraph, author: str) -> list[float]:
    """Ledger-derived author features: volume, mean modification degree,
    untraceable share.  A brand-new account (no history) reports the
    priors (0 volume, 0.5 / 0.5) — itself a risk signal."""
    degrees = []
    untraceable = 0
    for _, attrs in graph.nodes(data=True):
        if attrs.get("author") != author or attrs.get("is_fact_root"):
            continue
        degrees.append(attrs.get("modification_degree", 0.0))
        if graph.out_degree(_) == 0:
            untraceable += 1
    if not degrees:
        return [0.0, 0.5, 0.5]
    return [
        float(len(degrees)),
        float(sum(degrees) / len(degrees)),
        float(untraceable / len(degrees)),
    ]


class FakeRiskPredictor:
    """Pre-propagation risk: stylometric content + author ledger history."""

    def __init__(self, learning_rate: float = 0.3, n_iterations: int = 400):
        self._stylometric = StylometricExtractor()
        self._scaler = StandardScaler()
        self._model = LogisticRegression(learning_rate=learning_rate, n_iterations=n_iterations)
        self._fitted = False

    def _matrix(
        self, articles: list[Article], graph: SupplyChainGraph | nx.DiGraph
    ) -> np.ndarray:
        content = self._stylometric.transform([a.text for a in articles])
        history = np.array(
            [author_history_features(graph, a.author) for a in articles], dtype=np.float64
        )
        return np.hstack([content, history])

    def fit(
        self, articles: list[Article], graph: SupplyChainGraph | nx.DiGraph
    ) -> "FakeRiskPredictor":
        if not articles:
            raise MLError("need training articles")
        X = self._scaler.fit_transform(self._matrix(articles, graph))
        y = np.array([int(a.label_fake) for a in articles])
        self._model.fit(X, y)
        self._fitted = True
        return self

    def risk(self, articles: list[Article], graph: SupplyChainGraph | nx.DiGraph) -> np.ndarray:
        """P(fake) per article, before any share has happened."""
        if not self._fitted:
            raise MLError("predictor must be fitted first")
        X = self._scaler.transform(self._matrix(articles, graph))
        return self._model.score_fake(X)


def early_cascade_features(
    result: CascadeResult,
    root_id: str,
    agents_by_id: dict[str, SocialAgent],
    upto_round: int,
) -> list[float]:
    """Telemetry from the first rounds of one lineage's cascade.

    Features: shares so far, unique sharers, bot share fraction,
    mutation fraction, exposure so far — the signals Grinberg et al.
    [36] found predictive (bot-driven early amplification).
    """
    events = [
        e
        for e in result.events
        if e.round_index < upto_round and result.root_of.get(e.article_id) == root_id
    ]
    if not events:
        reach_curve = result.reach_curve(root_id)
        early_reach = reach_curve[min(upto_round, len(reach_curve) - 1)] if reach_curve else 0
        return [0.0, 0.0, 0.0, 0.0, float(early_reach)]
    sharers = {e.agent_id for e in events}
    bots = sum(
        1
        for e in events
        if (agent := agents_by_id.get(e.agent_id)) is not None
        and agent.kind in (AgentKind.BOT, AgentKind.CYBORG)
    )
    mutations = sum(1 for e in events if e.op not in ("relay",))
    reach_curve = result.reach_curve(root_id)
    early_reach = reach_curve[min(upto_round - 1, len(reach_curve) - 1)] if reach_curve else 0
    return [
        float(len(events)),
        float(len(sharers)),
        bots / len(events),
        mutations / len(events),
        float(early_reach),
    ]


class ViralityPredictor:
    """Predicts viral outcomes from round-k cascade telemetry."""

    def __init__(self, viral_threshold: int = 100):
        self.viral_threshold = viral_threshold
        self._scaler = StandardScaler()
        self._model = LogisticRegression(learning_rate=0.3, n_iterations=400)
        self._fitted = False

    def fit(self, feature_rows: list[list[float]], final_reaches: list[int]) -> "ViralityPredictor":
        if len(feature_rows) != len(final_reaches) or not feature_rows:
            raise MLError("features/labels mismatch or empty")
        X = self._scaler.fit_transform(np.array(feature_rows, dtype=np.float64))
        y = np.array([int(r >= self.viral_threshold) for r in final_reaches])
        if len(set(y.tolist())) < 2:
            raise MLError("training set needs both viral and non-viral examples")
        self._model.fit(X, y)
        self._fitted = True
        return self

    def predict_viral(self, feature_rows: list[list[float]]) -> np.ndarray:
        """P(goes viral) per lineage."""
        if not self._fitted:
            raise MLError("predictor must be fitted first")
        X = self._scaler.transform(np.array(feature_rows, dtype=np.float64))
        return self._model.score_fake(X)
